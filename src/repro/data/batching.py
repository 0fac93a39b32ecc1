"""Run-knob resolution for batched execution and position subsets.

``batch_size`` is how many probe positions the engine sends through one
batched multislice call (one transform over a ``(B, window, window)``
stack instead of ``B`` separate ones).  It resolves like every other
execution knob: explicit value → ``REPRO_BATCH_SIZE`` environment → 1
(the per-position reference).  Batching is bit-exact: the engine keeps
every rank's accumulation in probe order, so batch size 1 *is* the
historical behaviour, bit for bit.

``positions`` restricts a sweep to a subset of the scan (a streaming
coverage snapshot); :func:`resolve_positions` validates it.
"""

from __future__ import annotations

import operator
import os
from typing import Optional, Sequence, Tuple

__all__ = [
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
