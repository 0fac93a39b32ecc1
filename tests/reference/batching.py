"""Order-preserving batching of probe index lists — the serial
reference sweep's batch plan (:mod:`tests.reference.serial`).

The engine batches inside its compiled sweep plans; this planner is the
independent statement of the same contract, property-tested in
``tests/data``:

* every input position appears in exactly one batch;
* order is preserved (concatenating the batches reproduces the input —
  required for bit-exact parity with per-position execution, whose
  accumulation order is the probe order);
* no batch exceeds ``batch_size`` and none is empty (the final batch may
  be ragged).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.core.decomposition import Decomposition


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
        self, decomp: Decomposition
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
        """Batches over the covered subset of ``indices``: positions
        whose frames have not arrived are skipped, everything else keeps
        its original order — so the batches partition *exactly* the
        covered positions (property-tested in
        ``tests/data/test_stream_properties.py``)."""
        member = frozenset(covered)
        return self.plan([i for i in indices if i in member])
