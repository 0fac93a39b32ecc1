"""Strong-scaling arithmetic (Tables II/III row 5, Fig. 7a)."""

from __future__ import annotations

from typing import List, Sequence

__all__ = ["speedups", "strong_scaling_efficiency"]


def _check(times: Sequence[float], units: Sequence[int]) -> None:
    if len(times) != len(units) or not times:
        raise ValueError("times and units must be equal-length, non-empty")
    if any(t <= 0 for t in times):
        raise ValueError("times must be positive")
    if any(u <= 0 for u in units):
        raise ValueError("unit counts must be positive")


def speedups(times: Sequence[float], units: Sequence[int]) -> List[float]:
    """Speedup of every configuration relative to the first."""
    _check(times, units)
    return [times[0] / t for t in times]


def strong_scaling_efficiency(
    times: Sequence[float], units: Sequence[int]
) -> List[float]:
    """Efficiency (%) relative to the first configuration:
    ``100 * t0*u0 / (t*u)`` — the paper's fifth table row."""
    _check(times, units)
    base = times[0] * units[0]
    return [100.0 * base / (t * u) for t, u in zip(times, units)]
