"""Calibrated cost model implementing the event simulator's
:class:`~repro.parallel.event_sim.CostProvider` protocol.

Per-probe compute time:

``t = (overhead + flops(G) / effective_flops) * pressure(working_set)
      * speed(rank)``

* ``flops(G)`` — analytic flop count of one multislice cost+gradient
  evaluation (FFT-dominated, ``O(S * n^2 log n)``; Sec. VI-C of the paper).
* ``pressure`` — the memory/cache-pressure factor of
  :class:`~repro.perfmodel.machine.MachineSpec`, responsible for the
  super-linear strong scaling: large per-GPU working sets at low GPU
  counts run each probe several times slower.
* ``speed`` — deterministic per-rank heterogeneity, the source of the
  GPU waiting times of Fig. 7b.

Message sizes are complex64 region bytes per the paper's implementation;
the all-reduce buffer (non-APPP mode) is the *full* gradient volume, which
is exactly why the paper rejects it (Sec. V).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.decomposition import Decomposition
from repro.perfmodel.machine import MachineSpec, SUMMIT
from repro.perfmodel.memory_model import MemoryModel
from repro.physics.dataset import DatasetSpec

__all__ = ["SummitCostModel", "multislice_flops"]


def multislice_flops(detector_px: int, n_slices: int) -> float:
    """Analytic flop count of one multislice cost+gradient evaluation
    (the single formula; ``MultisliceModel.flops_per_probe`` delegates
    here).

    Dominated by FFTs: the forward sweep runs ``2(S-1)`` propagation
    transforms plus the far-field one and the adjoint mirrors it —
    ``4S - 2`` in all, each ``5 * n^2 * log2(n^2)`` flops — plus
    ``O(S n^2)`` pointwise work.  This is the ``N log N`` growth the
    paper credits for the super-linear strong scaling (Sec. VI-C).
    """
    n2 = float(detector_px * detector_px)
    ffts = 4 * n_slices - 2
    fft_flops = 5.0 * n2 * math.log2(max(n2, 2.0))
    pointwise = 12.0 * n_slices * n2
    return ffts * fft_flops + pointwise


class SummitCostModel:
    """Durations and message sizes for one (dataset, decomposition) pair.

    Parameters
    ----------
    spec / decomp:
        The acquisition and its tile decomposition.
    machine:
        Calibrated machine model.
    memory_model:
        Supplies per-rank working sets; constructed with full-scale
        storage dtypes when omitted.
    comm_round_factor / compute_round_factor:
        Multipliers on message bytes and gradient compute for
        communication-constrained regimes (Halo Voxel Exchange near its
        tile-size limit needs multi-hop relays and boundary re-solves;
        see :mod:`repro.perfmodel.predictor`).  1.0 = normal.
    """

    def __init__(
        self,
        spec: DatasetSpec,
        decomp: Decomposition,
        machine: MachineSpec = SUMMIT,
        memory_model: Optional[MemoryModel] = None,
        comm_round_factor: float = 1.0,
        compute_round_factor: float = 1.0,
    ) -> None:
        if comm_round_factor < 1.0 or compute_round_factor < 1.0:
            raise ValueError("round factors must be >= 1")
        self.spec = spec
        self.decomp = decomp
        self.machine = machine
        self.memory = (
            memory_model if memory_model is not None else MemoryModel(spec, machine)
        )
        self.comm_round_factor = comm_round_factor
        self.compute_round_factor = compute_round_factor
        self._base_probe_s = (
            machine.probe_overhead_s
            + multislice_flops(spec.detector_px, spec.n_slices)
            / machine.effective_flops
        )
        # Working sets are static per decomposition: precompute factors.
        self._rank_factor = [
            machine.pressure_factor(self.memory.working_set_bytes(decomp, r))
            * machine.speed_factor(r)
            for r in range(decomp.n_ranks)
        ]

    # ------------------------------------------------------------------
    # CostProvider protocol
    # ------------------------------------------------------------------
    def gradient_seconds(self, rank: int, n_probes: int) -> float:
        """Time for ``n_probes`` gradient evaluations on ``rank``."""
        return (
            n_probes
            * self._base_probe_s
            * self._rank_factor[rank]
            * self.compute_round_factor
        )

    def exchange_bytes(self, region_area: int) -> float:
        """Message bytes of a buffer/voxel region (complex64 volume)."""
        return (
            region_area * self.spec.n_slices * 8.0 * self.comm_round_factor
        )

    def apply_seconds(self, region_area: int) -> float:
        """Pointwise add/replace of a received region (bandwidth bound:
        read remote + read/write local)."""
        nbytes = region_area * self.spec.n_slices * 8.0
        return 3.0 * nbytes / self.machine.memory_bandwidth

    def update_seconds(self, rank: int) -> float:
        """Tile update ``V -= lr * AccBuf`` (read buf, read+write V)."""
        ext = self.decomp.tile(rank).ext
        nbytes = ext.area * self.spec.n_slices * 8.0
        return 3.0 * nbytes / self.machine.memory_bandwidth

    def allreduce_bytes(self) -> float:
        """Full gradient volume — the non-APPP all-reduce payload."""
        rows, cols = self.spec.object_shape
        return rows * cols * self.spec.n_slices * 8.0

    def probe_bytes(self) -> float:
        """Size of the probe array (complex64) — the ProbeSync payload."""
        return self.spec.detector_px**2 * 8.0

    def probe_update_seconds(self, rank: int) -> float:
        """Pointwise probe update (bandwidth bound)."""
        return 3.0 * self.probe_bytes() / self.machine.memory_bandwidth

    # ------------------------------------------------------------------
    def probe_seconds(self, rank: int) -> float:
        """Modeled single-probe evaluation time on ``rank`` (diagnostic)."""
        return self._base_probe_s * self._rank_factor[rank]
