"""Public gradient-decomposition reconstructor (paper Algorithm 1).

:class:`GradientDecompositionReconstructor` orchestrates everything:

1. decompose the image into tiles with minimal halos (Sec. III);
2. per iteration, build the round structure implied by the delayed
   accumulation period ``T`` (Alg. 1 line 9) — gradient computation,
   forward/backward passes, buffer update, buffer reset;
3. execute it on the numeric engine (real arrays, virtual communicator);
4. stitch the non-halo tiles into the final volume (line 20).

Modes
-----
``mode="alg1"`` is the paper's Algorithm 1 verbatim: each probe does an
immediate local SGD step (line 8) *and* accumulates into the buffer
(line 7); every ``T`` probes the passes run and the accumulated buffer is
applied as a second update (lines 10-16).

``mode="synchronous"`` is the textbook-exact variant this library adds as a
correctness anchor: no local updates, one buffer update per round — with
exact halos it reproduces serial full-batch gradient descent to floating
point roundoff at any rank count (tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.decomposition import Decomposition, decompose_gradient
from repro.core.engine import NumericEngine
from repro.obs import telemetry as _obs
from repro.core.observers import (
    IterationEmitter,
    Observer,
    warn_legacy_callback,
)
from repro.core.passes import (
    build_allreduce_sync,
    build_appp_passes,
    build_barrier_passes,
    build_neighbor_exchanges,
)
from repro.core.stitching import stitch
from repro.data.batching import resolve_positions
from repro.parallel.topology import MeshLayout
from repro.runtime.executor import EnginePlan, resolve_executor
from repro.physics.dataset import PtychoDataset
from repro.schedule.ops import (
    ApplyBufferUpdate,
    ApplyProbeUpdate,
    ComputeGradients,
    OrthogonalizeProbe,
    ProbeSync,
    ResetBuffer,
    Schedule,
)

__all__ = ["GradientDecompositionReconstructor", "ReconstructionResult"]

_PLANNERS: Dict[str, Callable] = {
    "appp": build_appp_passes,
    "barrier": build_barrier_passes,
    "allreduce": build_allreduce_sync,
    "neighbor": build_neighbor_exchanges,
}


@dataclass
class ReconstructionResult:
    """Outcome of a distributed reconstruction.

    Attributes
    ----------
    volume:
        Stitched ``(n_slices, rows, cols)`` complex reconstruction.
    history:
        Per-iteration sweep cost (sum of ``f_i`` evaluated during the
        iteration) — the convergence signal of the paper's Fig. 9.
    messages / message_bytes:
        Total point-to-point traffic measured by the virtual communicator.
    peak_memory_per_rank:
        Measured peak bytes per rank (numeric-engine allocations).
    decomposition:
        The tile decomposition used.
    probe:
        Final probe estimate (None unless probe refinement was enabled).
    telemetry:
        Aggregated telemetry summary (``repro.obs`` schema) when the run
        recorded one; ``None`` for telemetry-disabled runs.  Attached
        after the run by :func:`repro.api.reconstruct` and persisted in
        result archives.
    """

    volume: np.ndarray
    history: List[float]
    messages: int
    message_bytes: int
    peak_memory_per_rank: List[int]
    decomposition: Decomposition = field(repr=False)
    probe: Optional[np.ndarray] = field(default=None, repr=False)
    telemetry: Optional[Dict] = field(default=None, repr=False)

    @property
    def n_iterations(self) -> int:
        """Iterations actually run."""
        return len(self.history)

    @property
    def final_cost(self) -> float:
        """Last recorded sweep cost."""
        return self.history[-1] if self.history else float("nan")

    @property
    def peak_memory_mean(self) -> float:
        """Average per-rank peak bytes (the paper's memory metric)."""
        return float(np.mean(self.peak_memory_per_rank))


def _round_chunks(
    probe_lists: List[Tuple[int, ...]], period: Union[str, int]
) -> List[List[Tuple[int, ...]]]:
    """Split each rank's probe list into per-round chunks.

    Returns ``rounds[j][rank]`` = tuple of probe indices rank evaluates in
    round ``j``.  ``period`` is the Alg. 1 parameter ``T``: an int (probes
    between passes) or one of ``"iteration"`` (one round), ``"half"``
    (two rounds), ``"probe"`` (a round per probe, T=1).
    """
    max_local = max((len(p) for p in probe_lists), default=0)
    if period == "iteration":
        t = max(max_local, 1)
    elif period == "half":
        t = max(-(-max_local // 2), 1)
    elif period == "probe":
        t = 1
    elif isinstance(period, int):
        if period <= 0:
            raise ValueError("sync period T must be positive")
        t = period
    else:
        raise ValueError(f"unknown sync period {period!r}")

    n_rounds = max(-(-len(p) // t) for p in probe_lists) if max_local else 1
    rounds: List[List[Tuple[int, ...]]] = []
    for j in range(n_rounds):
        rounds.append([tuple(p[j * t : (j + 1) * t]) for p in probe_lists])
    return rounds


class GradientDecompositionReconstructor:
    """Distributed multislice ptychography via gradient decomposition.

    Parameters
    ----------
    n_ranks / mesh:
        Cluster size (mesh chosen automatically) or an explicit
        :class:`~repro.parallel.topology.MeshLayout`.
    iterations:
        Number of full sweeps over all probe locations.
    lr:
        Gradient step size.
    mode:
        ``"alg1"`` (paper) or ``"synchronous"`` (exact; see module doc).
    sync_period:
        Alg. 1 ``T``: ``"iteration"``, ``"half"``, ``"probe"`` or an int.
    planner:
        ``"appp"`` (paper), ``"barrier"``, ``"allreduce"`` or
        ``"neighbor"`` (Sec. III direct-neighbour ablation).
    halo:
        ``"exact"`` or a fixed halo width in pixels (see
        :func:`repro.core.decomposition.decompose_gradient`).
    compensate_local:
        Subtract already-applied local gradients from the buffer update
        (ablation; the paper's Alg. 1 re-applies them).
    refine_probe / probe_lr:
        Jointly refine the probe (extension beyond the paper): per-rank
        probe gradients are accumulated during compute, all-reduced once
        per iteration (the probe is one small global array, so the
        all-reduce the paper rejects for the *volume* is the right tool
        here), and applied with step ``probe_lr``.
    backend / dtype:
        Compute backend name (or instance) and precision policy for the
        numeric engine — see :mod:`repro.backend`.  ``None`` resolves
        the ambient defaults (``numpy``/``complex128`` unless the
        ``REPRO_BACKEND``/``REPRO_DTYPE`` environment says otherwise).
    executor / runtime_workers:
        *Where* the rank programs run — see :mod:`repro.runtime`.
        ``"serial"`` hosts every rank in this process (the bit-exact
        reference); ``"process"`` runs each rank block in its own worker
        process with tile state in shared memory (``runtime_workers``
        bounds the pool).  ``None`` resolves the ambient default
        (``REPRO_EXECUTOR`` environment, else ``serial``); an explicit
        value is never overridden by the environment.  On the numpy
        backend the ``process`` executor reproduces the ``serial``
        result bit-for-bit.
    data_source / batch_size / prefetch:
        Measurement source and batching (see :mod:`repro.data`):
        ``None``/``"memory"`` pins each rank's measurement shard in RAM
        (the historical behaviour, bit for bit); a path streams lazily
        from a chunked on-disk store (``prefetch=True`` overlaps the
        next chunk's I/O with compute).  ``batch_size`` probes *per
        rank* run through each multislice call as one FFT batch where
        order permits (``mode="synchronous"``); Alg. 1's per-probe
        local updates are order-dependent within a rank, so each rank
        contributes one position per call.  Ranks that share an engine
        and contribute one position each share the call (see
        :class:`~repro.core.engine.NumericEngine`).  ``None`` resolves
        ``REPRO_BATCH_SIZE``, else 1; every setting is
        fingerprint-identical to the per-position reference.
    positions:
        Restrict sweeps to this scan-position subset (``None`` = the
        full scan).  The streaming driver plans each epoch over a
        coverage snapshot this way; the decomposition stays on the full
        scan, so a restricted run is exactly the full run with the
        missing probes' gradient terms skipped.
    probe_modes:
        Number of incoherent probe modes (mixed-state reconstruction,
        see :mod:`repro.physics.probe`).  ``None``/1 is the scalar path,
        bit-identical to the historical behaviour; ``M > 1`` carries an
        ``(M, w, w)`` mode stack through the engine and schedules an
        :class:`OrthogonalizeProbe` pass after each probe update when
        ``refine_probe=True``.
    """

    def __init__(
        self,
        n_ranks: Optional[int] = None,
        mesh: Optional[MeshLayout] = None,
        iterations: int = 10,
        lr: float = 0.5,
        mode: str = "alg1",
        sync_period: Union[str, int] = "iteration",
        planner: str = "appp",
        halo: Union[str, int] = "exact",
        compensate_local: bool = False,
        refine_probe: bool = False,
        probe_lr: Optional[float] = None,
        backend: Optional[str] = None,
        dtype: Optional[str] = None,
        executor: Optional[str] = None,
        runtime_workers: Optional[int] = None,
        data_source: Optional[str] = None,
        batch_size: Optional[int] = None,
        prefetch: bool = False,
        positions: Optional[Sequence[int]] = None,
        probe_modes: Optional[int] = None,
    ) -> None:
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        if mode not in ("alg1", "synchronous"):
            raise ValueError(f"unknown mode {mode!r}")
        if planner not in _PLANNERS:
            raise ValueError(
                f"unknown planner {planner!r}; choose from {sorted(_PLANNERS)}"
            )
        if refine_probe and probe_lr is not None and probe_lr <= 0:
            raise ValueError("probe_lr must be positive")
        if runtime_workers is not None and runtime_workers <= 0:
            raise ValueError("runtime_workers must be positive")
        if batch_size is not None and batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if probe_modes is not None and probe_modes <= 0:
            raise ValueError("probe_modes must be positive")
        self.n_ranks = n_ranks
        self.mesh = mesh
        self.iterations = iterations
        self.lr = float(lr)
        self.mode = mode
        self.sync_period = sync_period
        self.planner = planner
        self.halo = halo
        self.compensate_local = compensate_local
        self.refine_probe = refine_probe
        self.probe_lr = probe_lr
        self.backend = backend
        self.dtype = dtype
        self.executor = executor
        self.runtime_workers = runtime_workers
        self.data_source = data_source
        self.batch_size = batch_size
        self.prefetch = bool(prefetch)
        self.positions = positions
        self.probe_modes = probe_modes

    # ------------------------------------------------------------------
    def decompose(self, dataset: PtychoDataset) -> Decomposition:
        """Build the tile decomposition for ``dataset``."""
        return decompose_gradient(
            dataset.scan,
            dataset.object_shape,
            mesh=self.mesh,
            n_ranks=self.n_ranks if self.mesh is None else None,
            halo=self.halo,
        )

    def build_iteration_schedule(self, decomp: Decomposition) -> Schedule:
        """Compile one iteration (a full sweep over all probes) to ops.

        Shared by the numeric run and the performance model's event
        simulation, which is what keeps the timing results faithful to the
        executed algorithm.
        """
        schedule = Schedule(decomp.n_ranks)
        pass_builder = _PLANNERS[self.planner]
        local_update = self.mode == "alg1"
        probe_lists = [t.probes for t in decomp.tiles]
        # A positions restriction (streaming coverage snapshot) narrows
        # each tile's sweep to the covered probes in the tile's own
        # order; the decomposition, buffer exchanges and apply steps
        # stay on the full scan.
        active = resolve_positions(self.positions, decomp.scan.n_positions)
        if active is not None:
            member = frozenset(active)
            probe_lists = [
                tuple(p for p in probes if p in member)
                for probes in probe_lists
            ]
        rounds = _round_chunks(probe_lists, self.sync_period)

        last: Dict[int, int] = {}
        for round_chunks in rounds:
            for rank, chunk in enumerate(round_chunks):
                if not chunk:
                    continue
                uid = schedule.add(
                    ComputeGradients(
                        rank=rank,
                        probe_indices=chunk,
                        local_update=local_update,
                    ),
                    deps=[last[rank]] if rank in last else [],
                )
                last[rank] = uid
            last = pass_builder(schedule, decomp, last)
            for rank in range(decomp.n_ranks):
                uid = schedule.add(
                    ApplyBufferUpdate(rank=rank, lr=self.lr),
                    deps=[last[rank]] if rank in last else [],
                )
                last[rank] = uid
                uid = schedule.add(ResetBuffer(rank=rank), deps=[uid])
                last[rank] = uid
        if self.refine_probe:
            # One probe all-reduce + update per iteration (after the
            # volume work; the probe is a single small global array).
            uid = schedule.add(
                ProbeSync(n_ranks=decomp.n_ranks),
                deps=sorted(set(last.values())),
            )
            multi_mode = self.probe_modes is not None and self.probe_modes > 1
            for rank in range(decomp.n_ranks):
                last[rank] = schedule.add(
                    ApplyProbeUpdate(
                        rank=rank, lr=self._resolved_probe_lr(decomp)
                    ),
                    deps=[uid],
                )
                if multi_mode:
                    # Mixed-state runs re-orthogonalize the mode stack
                    # after every probe step; never scheduled at M=1 so
                    # single-mode schedules stay identical to scalar ones.
                    last[rank] = schedule.add(
                        OrthogonalizeProbe(rank=rank), deps=[last[rank]]
                    )
        schedule.validate()
        return schedule

    def _resolved_probe_lr(self, decomp: Decomposition) -> float:
        """Probe step size: explicit, or ``0.5 / N``.

        The probe gradient is preconditioned by the *object* magnitude
        (|O| ~ 1 for a transmission function), not the probe intensity, so
        the object step's ``1/max|p|^2`` factor must not leak in; the sum
        over all ``N`` probe locations supplies the remaining scale.
        """
        if self.probe_lr is not None:
            return self.probe_lr
        return 0.5 / max(decomp.scan.n_positions, 1)

    # ------------------------------------------------------------------
    def reconstruct(
        self,
        dataset: PtychoDataset,
        callback: Optional[Callable[[int, float, NumericEngine], None]] = None,
        initial_probe: Optional[np.ndarray] = None,
        initial_volume: Optional[np.ndarray] = None,
        *,
        observers: Sequence[Observer] = (),
    ) -> ReconstructionResult:
        """Run the full reconstruction.

        Parameters
        ----------
        dataset:
            The acquisition.
        observers:
            Per-iteration hooks, each receiving a structured
            :class:`~repro.core.observers.IterationEvent` (iteration,
            cost, elapsed time, traffic/memory counters, and a lazy
            ``snapshot()`` materializing the current state as a
            :class:`ReconstructionResult`) — used by the convergence
            experiments and :class:`repro.api.CheckpointPolicy`.
        callback:
            **Deprecated** pre-observer hook ``callback(iteration, cost,
            engine)``; still honoured (with a :class:`DeprecationWarning`)
            alongside any observers.  Migrate with
            ``observers=[lambda ev: old(ev.iteration, ev.cost, ...)]``.
        initial_probe:
            Starting probe estimate (defaults to the dataset's probe; pass
            a perturbed probe together with ``refine_probe=True`` for
            joint probe/object recovery).
        initial_volume:
            Warm-start volume (checkpoint restart); defaults to vacuum.
        """
        executor_spec = self.executor
        if callback is not None:
            warn_legacy_callback(type(self).__name__)
            if executor_spec is None:
                # The legacy hook hands the caller the in-process engine,
                # which only the serial executor has; ambient resolution
                # (REPRO_EXECUTOR) must not break pre-runtime call sites,
                # so they pin serial.  An *explicitly* requested
                # distributed executor still errors below.
                executor_spec = "serial"
        decomp = self.decompose(dataset)
        schedule = self.build_iteration_schedule(decomp)
        tel = _obs.current()
        session = resolve_executor(
            executor_spec, workers=self.runtime_workers
        ).launch(
            EnginePlan(
                dataset=dataset,
                decomp=decomp,
                schedule=schedule,
                lr=self.lr,
                compensate_local=self.compensate_local,
                initial_probe=initial_probe,
                refine_probe=self.refine_probe,
                initial_volume=initial_volume,
                backend=self.backend,
                dtype=self.dtype,
                data_source=self.data_source,
                batch_size=self.batch_size,
                prefetch=self.prefetch,
                probe_modes=self.probe_modes,
                telemetry=tel.enabled,
            )
        )
        if callback is not None and session.engine is None:
            session.close()
            raise ValueError(
                "the deprecated callback= hook needs in-process engine "
                "access and only works with the serial executor; migrate "
                "to observers="
            )

        def result_snapshot(history: List[float]) -> ReconstructionResult:
            return ReconstructionResult(
                volume=stitch(decomp, session.volumes(), dataset.n_slices),
                history=list(history),
                messages=session.messages,
                message_bytes=session.message_bytes,
                peak_memory_per_rank=session.per_rank_peaks,
                decomposition=decomp,
                probe=session.probe(),
            )

        history: List[float] = []
        emitter = IterationEmitter("gd", self.iterations, observers)
        try:
            for it in range(self.iterations):
                if tel.enabled:
                    with tel.span("run.iteration", iteration=it):
                        cost = session.step()
                else:
                    cost = session.step()
                history.append(cost)
                if callback is not None:
                    callback(it, cost, session.engine)
                emitter.emit(
                    it,
                    cost,
                    messages=session.messages,
                    message_bytes=session.message_bytes,
                    peak_memory_bytes=float(
                        np.mean(session.per_rank_peaks)
                    ),
                    # Materializes the session state *at call time*, so
                    # volume, counters and history always describe the
                    # same moment (history is read live, not frozen).
                    snapshot=lambda: result_snapshot(list(history)),
                )

            return result_snapshot(history)
        finally:
            session.close()
