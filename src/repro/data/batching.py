"""Batch planning: grouping scan positions for batched execution.

A :class:`BatchPlanner` splits each rank-tile's probe list into
fixed-size batches that the numeric engine runs through the multislice
model *as one stack* — one transform over a ``(B, window, window)``
batch instead of ``B`` separate transforms.  The FFT backends are
measurably faster on batched stacks (see ``BENCH_backends.json``), so
this is the hot-path win; the plan itself is pure bookkeeping.

Planning invariants (property-tested in ``tests/data``):

* every input position appears in exactly one batch;
* order is preserved (concatenating the batches reproduces the input —
  required for bit-exact parity with per-position execution, whose
  accumulation order is the probe order);
* no batch exceeds ``batch_size`` and none is empty (the final batch may
  be ragged).

``batch_size`` resolves like every other execution knob: explicit value
→ ``REPRO_BATCH_SIZE`` environment → 1 (the per-position reference).
Batch size 1 *is* the historical engine behaviour, bit for bit.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.core.decomposition import Decomposition

__all__ = [
    "BatchPlanner",
    "resolve_batch_size",
    "resolve_positions",
    "default_batch_size",
    "ENV_BATCH_SIZE",
]

#: Environment variable consulted when no explicit batch size is given.
ENV_BATCH_SIZE = "REPRO_BATCH_SIZE"


def default_batch_size() -> int:
    """The ambient batch size (``REPRO_BATCH_SIZE`` or 1)."""
    raw = os.environ.get(ENV_BATCH_SIZE)
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{ENV_BATCH_SIZE} must be a positive integer, got {raw!r}"
        ) from None
    if value <= 0:
        raise ValueError(
            f"{ENV_BATCH_SIZE} must be a positive integer, got {raw!r}"
        )
    return value


def resolve_batch_size(spec: Optional[int] = None) -> int:
    """Explicit batch size → itself; ``None`` → the ambient default.

    Follows the backend/executor precedence contract: an explicit value
    (solver argument, pinned config field) is never overridden by the
    environment.
    """
    if spec is None:
        return default_batch_size()
    value = int(spec)
    if value <= 0:
        raise ValueError(f"batch_size must be positive, got {spec}")
    return value


@dataclass(frozen=True)
class BatchPlanner:
    """Order-preserving fixed-size batching of probe index lists."""

    batch_size: int

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ValueError(
                f"batch_size must be positive, got {self.batch_size}"
            )

    def iter_batches(
        self, indices: Sequence[int]
    ) -> Iterator[Tuple[int, ...]]:
        """Yield consecutive ``<= batch_size`` slices of ``indices``."""
        b = self.batch_size
        for start in range(0, len(indices), b):
            yield tuple(indices[start : start + b])

    def plan(self, indices: Sequence[int]) -> List[Tuple[int, ...]]:
        """The full batch list for one probe sequence."""
        return list(self.iter_batches(indices))

    def plan_tiles(
        self, decomp: "Decomposition"
    ) -> Dict[int, List[Tuple[int, ...]]]:
        """Per-rank-tile batch lists over each tile's *own* probes (the
        gradient-decomposition assignment; rank → batches)."""
        return {t.rank: self.plan(t.probes) for t in decomp.tiles}

    def n_batches(self, n_positions: int) -> int:
        """Batches needed for ``n_positions`` probes."""
        if n_positions <= 0:
            return 0
        return -(-n_positions // self.batch_size)

    def plan_covered(
        self, indices: Sequence[int], covered: Sequence[int]
    ) -> List[Tuple[int, ...]]:
        """Batches over the covered subset of ``indices``.

        The streaming driver plans each sweep against a coverage
        snapshot: positions whose frames have not arrived are skipped,
        everything else keeps its original order — so the batches
        partition *exactly* the covered positions (property-tested in
        ``tests/data/test_stream_properties.py``).
        """
        member = frozenset(covered)
        return self.plan([i for i in indices if i in member])


def resolve_positions(
    positions: Optional[Sequence[int]], n_positions: int
) -> Optional[Tuple[int, ...]]:
    """Validate a solver's ``positions`` restriction.

    ``None`` means the full scan (the static default).  Otherwise the
    subset must be non-empty, duplicate-free ints inside
    ``[0, n_positions)``; the *given order is preserved* — solvers
    filter their own sweep order by membership, so the tuple order
    never changes numerics, but keeping it stable keeps errors
    readable.
    """
    if positions is None:
        return None
    out = []
    seen = set()
    for p in positions:
        if isinstance(p, bool):
            raise ValueError(f"positions must be ints, got {p!r}")
        try:
            p = operator.index(p)
        except TypeError:
            raise ValueError(
                f"positions must be ints, got {p!r}"
            ) from None
        if not (0 <= p < n_positions):
            raise ValueError(
                f"position {p} out of range [0, {n_positions})"
            )
        if p in seen:
            raise ValueError(f"position {p} listed twice")
        seen.add(p)
        out.append(int(p))
    if not out:
        raise ValueError(
            "positions must name at least one scan position "
            "(None means the full scan)"
        )
    return tuple(out)
