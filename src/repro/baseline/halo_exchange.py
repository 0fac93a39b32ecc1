"""Halo Voxel Exchange — the state-of-the-art baseline (paper Sec. II-C).

Each tile is assigned its own probes **plus** every probe within
``extra_rows`` scan rows of its border (the neighbouring circles of
Figs. 2(d)-(e)); its halo is augmented to cover them all.  An iteration is:

1. **Local solve**: each rank independently sweeps *all* its probes with
   SGD updates on its extended tile — embarrassingly parallel, but the
   extra probes are redundant computation, and the reconstructions of
   overlapping regions drift apart between ranks.
2. **Voxel exchange**: each rank's *core* voxels are copy-pasted into every
   neighbour's halo through synchronous point-to-point messages
   (Fig. 2(g)), forcing consistency — and imprinting the seam artifacts of
   Fig. 8, because pasted voxels meet locally-evolved voxels at tile
   borders with no blending.

The algorithm cannot scale past the point where a core tile becomes
smaller than the halo it must fill at its neighbours
(:class:`~repro.core.decomposition.ScalabilityError` — the "NA" entries of
Table II(b)).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.core.decomposition import (
    Decomposition,
    decompose_halo_exchange,
)
from repro.core.observers import Observer
from repro.core.reconstructor import (
    ReconstructionResult,
    run_plan,
    schedule_probe_update,
)
from repro.data.batching import resolve_positions
from repro.parallel.topology import MeshLayout
from repro.physics.dataset import PtychoDataset
from repro.runtime.executor import EnginePlan
from repro.runtime.options import RunOptions
from repro.schedule.ops import Barrier, LocalSolve, Schedule, VoxelPaste

__all__ = ["HaloExchangeReconstructor"]


class HaloExchangeReconstructor:
    """Distributed reconstruction via Halo Voxel Exchange.

    Parameters
    ----------
    n_ranks / mesh:
        Cluster size or explicit mesh.
    iterations:
        Full local-solve + exchange cycles.
    lr:
        SGD step size of the local solves.
    extra_rows:
        Rings of neighbour probe locations each tile additionally receives
        (the paper uses two).
    halo:
        ``"exact"`` (cover all assigned windows) or fixed width in pixels
        (the paper's 890 pm = 89 px setting).
    inner_sweeps:
        Local SGD sweeps between voxel exchanges.  The paper's algorithm
        reconstructs tiles *independently* and only then pastes (Sec.
        II-C), so values > 1 are faithful; the longer tiles evolve
        independently, the stronger the seam artifacts.
    enforce_tile_constraint:
        Raise :class:`ScalabilityError` in the "NA" regime (default True,
        faithful to the algorithm; disable only for diagnostics).
    refine_probe / probe_lr:
        Jointly refine the probe, as gd does (an extension beyond the
        paper, whose baseline fixes the probe): every position a local
        sweep evaluates adds its probe gradient, taken at the volume it
        read; after the voxel exchange one all-reduce sums them and each
        rank steps its probe copy by ``probe_lr`` (default ``0.5 / N``).
        On more than one rank a position in a halo contributes once per
        rank that sweeps it.  This is how the serial solver's ``"sgd"``
        scheme runs (one rank, no halo); the ``hve`` registry entry does
        not offer it.
    options / **option_fields:
        The run options as one
        :class:`~repro.runtime.options.RunOptions` (documented there)
        and/or by keyword; keywords override ``options``.  Specific to
        this baseline: a ``data_source`` path streams each rank's
        *redundant* (own + extra) shard; ``batch_size`` is accepted for
        config uniformity but is a no-op — the local solves are
        sequential SGD, whose semantics forbid batching within a rank
        (pinned by the parity suite); and ``probe_modes > 1`` matches
        the measured intensity against the incoherent sum over the
        deterministic mode stack expanded from the dataset probe (with
        ``refine_probe``, re-orthogonalized after each probe step).
    """

    def __init__(
        self,
        n_ranks: Optional[int] = None,
        mesh: Optional[MeshLayout] = None,
        iterations: int = 10,
        lr: float = 0.5,
        extra_rows: int = 2,
        halo: Union[str, int] = "exact",
        inner_sweeps: int = 1,
        enforce_tile_constraint: bool = True,
        refine_probe: bool = False,
        probe_lr: Optional[float] = None,
        options: Optional[RunOptions] = None,
        **option_fields,
    ) -> None:
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        if inner_sweeps <= 0:
            raise ValueError("inner_sweeps must be positive")
        if refine_probe and probe_lr is not None and probe_lr <= 0:
            raise ValueError("probe_lr must be positive")
        self.options = RunOptions.of(options, **option_fields)
        self.n_ranks = n_ranks
        self.mesh = mesh
        self.iterations = iterations
        self.lr = float(lr)
        self.extra_rows = extra_rows
        self.halo = halo
        self.inner_sweeps = inner_sweeps
        self.enforce_tile_constraint = enforce_tile_constraint
        self.refine_probe = refine_probe
        self.probe_lr = probe_lr

    # ------------------------------------------------------------------
    def decompose(self, dataset: PtychoDataset) -> Decomposition:
        """Tile decomposition with extra neighbour probes and augmented
        halos; raises :class:`ScalabilityError` in the NA regime."""
        return decompose_halo_exchange(
            dataset.scan,
            dataset.object_shape,
            mesh=self.mesh,
            n_ranks=self.n_ranks if self.mesh is None else None,
            extra_rows=self.extra_rows,
            halo=self.halo,
            enforce_tile_constraint=self.enforce_tile_constraint,
        )

    def build_iteration_schedule(self, decomp: Decomposition) -> Schedule:
        """One iteration: local solves, barrier, synchronous copy-pastes
        (then, under ``refine_probe``, the probe update).

        The paste set: for every ordered pair of 8-connected neighbours
        ``(src, dst)``, ``src``'s core voxels overlapping ``dst``'s
        extended tile are pasted (Fig. 2(g)).  Core tiles partition the
        image, so each halo voxel receives exactly one paste.
        """
        schedule = Schedule(decomp.n_ranks)
        # A positions restriction (streaming coverage snapshot) keeps
        # the decomposition on the full scan — tile shapes and the
        # paste pattern never change — and only narrows each tile's
        # local sweep to the covered probes, in the tile's own order.
        active = resolve_positions(
            self.options.positions, decomp.scan.n_positions
        )
        member = frozenset(active) if active is not None else None
        last: Dict[int, int] = {}
        for sweep in range(self.inner_sweeps):
            for tile in decomp.tiles:
                probes = (
                    tile.all_probes
                    if member is None
                    else tuple(p for p in tile.all_probes if p in member)
                )
                if not probes:
                    continue
                uid = schedule.add(
                    LocalSolve(
                        rank=tile.rank,
                        probe_indices=probes,
                        lr=self.lr,
                    ),
                    deps=[last[tile.rank]] if tile.rank in last else [],
                )
                last[tile.rank] = uid
        # The exchange phase is synchronous: nobody pastes until everyone
        # finished its local solve.
        uid = schedule.add(
            Barrier(n_ranks=decomp.n_ranks), deps=sorted(last.values())
        )
        for r in range(decomp.n_ranks):
            last[r] = uid
        for src_tile in decomp.tiles:
            for dst in decomp.mesh.neighbors8(src_tile.rank):
                dst_tile = decomp.tiles[dst]
                region = src_tile.core.intersect(dst_tile.ext)
                if region is None:
                    continue
                uid = schedule.add(
                    VoxelPaste(
                        src=src_tile.rank, dst=dst, region=region, tag=400
                    ),
                    deps=sorted({last[src_tile.rank], last[dst]}),
                )
                last[src_tile.rank] = uid
                last[dst] = uid
        if self.refine_probe:
            schedule_probe_update(
                schedule, decomp, last, self.probe_lr, self.options.probe_modes
            )
        schedule.validate()
        return schedule

    # ------------------------------------------------------------------
    def plan(
        self,
        dataset: PtychoDataset,
        initial_probe: Optional[np.ndarray] = None,
        initial_volume: Optional[np.ndarray] = None,
    ) -> EnginePlan:
        """The launch plan of a run on ``dataset``: its decomposition,
        one iteration's schedule and the run's options (arguments as in
        :meth:`reconstruct`)."""
        decomp = self.decompose(dataset)
        return EnginePlan(
            dataset=dataset,
            decomp=decomp,
            schedule=self.build_iteration_schedule(decomp),
            lr=self.lr,
            initial_probe=initial_probe,
            refine_probe=self.refine_probe,
            initial_volume=initial_volume,
            options=self.options,
        )

    def reconstruct(
        self,
        dataset: PtychoDataset,
        initial_volume: Optional[np.ndarray] = None,
        *,
        observers: Sequence[Observer] = (),
        initial_probe: Optional[np.ndarray] = None,
    ) -> ReconstructionResult:
        """Run the full reconstruction.

        Parameters
        ----------
        dataset:
            The acquisition.
        observers:
            Per-iteration hooks, each receiving a structured
            :class:`~repro.core.observers.IterationEvent`.
        initial_volume:
            Warm-start volume (checkpoint restart); defaults to vacuum.
        initial_probe:
            Starting probe estimate (defaults to the dataset's probe).
        """
        plan = self.plan(dataset, initial_probe, initial_volume)
        return run_plan("hve", plan, self.iterations, observers)

    # ------------------------------------------------------------------
    def redundancy_factor(self, decomp: Decomposition) -> float:
        """Mean per-rank (own + extra) / own probe ratio — the redundant
        computation multiplier the paper blames for the poor scalability
        (1.0 means no redundancy; Gradient Decomposition is always 1.0)."""
        ratios = [
            len(t.all_probes) / max(len(t.probes), 1) for t in decomp.tiles
        ]
        return float(np.mean(ratios))
