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

Steps 3-4 are not this class's own: :func:`run_plan` /
:func:`run_session` below are the one run driver every solver (gd, hve,
and serial, which is either of them on one rank) steps its iterations
on.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import zip_longest
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

from repro.core.decomposition import Decomposition, decompose_gradient
from repro.obs import telemetry as _obs
from repro.core.observers import IterationEvent, Observer, dispatch
from repro.core.passes import (
    build_allreduce_sync,
    build_appp_passes,
    build_barrier_passes,
    build_neighbor_exchanges,
)
from repro.core.stitching import stitch
from repro.data.batching import resolve_positions
from repro.parallel.topology import MeshLayout
from repro.runtime.executor import (
    EnginePlan,
    ExecutionSession,
    resolve_executor,
)
from repro.runtime.options import RunOptions, SolverCapabilityError
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

__all__ = [
    "DivergenceError",
    "GradientDecompositionReconstructor",
    "LegFailedError",
    "ReconstructionResult",
    "fold_leg",
    "raise_in_run",
    "relay_leg",
    "run_plan",
    "run_session",
    "schedule_probe_update",
    "solver_mesh",
]

_PLANNERS: Dict[str, Callable] = {
    "appp": build_appp_passes,
    "barrier": build_barrier_passes,
    "allreduce": build_allreduce_sync,
    "neighbor": build_neighbor_exchanges,
}


class DivergenceError(RuntimeError):
    """An iteration's cost came back non-finite: the run diverged.

    Raised by :func:`run_session` before that iteration's event, so no
    observer (checkpoints included) ever sees the non-finite state.
    ``iteration`` counts from the start of the run, and
    ``last_finite_cost`` is ``None`` only when the run's first iteration
    diverged: a resumed or streamed leg's error is re-raised in run
    terms by :func:`raise_in_run`.
    """

    def __init__(
        self, solver: str, iteration: int, last_finite_cost: Optional[float]
    ) -> None:
        super().__init__(
            f"{solver} diverged at iteration {iteration}: the cost is not "
            f"finite (last finite cost: {last_finite_cost})"
        )
        self.solver = solver
        self.iteration = iteration
        self.last_finite_cost = last_finite_cost


class LegFailedError(RuntimeError):
    """An event's ``snapshot()`` was called after its leg failed.

    A leg that raised (a :class:`DivergenceError`, a failing step, or an
    observer raising, as the service's cancel does) leaves no state a
    caller may stitch: the serial executor's tiles may hold the
    non-finite iterate and a process session's shared memory is gone.
    :func:`run_session` raises this from every such snapshot, whatever
    the executor.
    """


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
        """Iterations of the whole run (a resumed run counts the
        iterations its resume archive had banked)."""
        return len(self.history)

    @property
    def n_ranks(self) -> int:
        """Rank count of the decomposition (what archives record)."""
        return self.decomposition.n_ranks

    @property
    def final_cost(self) -> float:
        """Last recorded sweep cost."""
        return self.history[-1] if self.history else float("nan")

    @property
    def peak_memory_mean(self) -> float:
        """Average per-rank peak bytes (the paper's memory metric)."""
        return float(np.mean(self.peak_memory_per_rank))


_Leg = TypeVar("_Leg")


def fold_leg(leg: _Leg, prior: Any) -> _Leg:
    """``leg`` with the ledger of ``prior``, the run before it, folded in.

    Chained warm-started legs (streaming epochs, a ``resume`` from an
    archive) each measure their own numbers; the whole run's are:
    history and traffic **add**, per-rank memory peaks take the
    **element-wise max** (a high-water mark; ragged-safe, though a run's
    decomposition — hence the rank count — is fixed by its config).
    Everything else (volume, probe, decomposition, telemetry) describes
    the current state and is ``leg``'s.  ``leg`` and ``prior`` are any
    dataclasses carrying the four ledger fields
    (:class:`ReconstructionResult`, a loaded
    :class:`~repro.io.storage.ResultArchive`); ``prior=None`` (nothing
    ran before) returns ``leg`` itself.
    """
    if prior is None:
        return leg
    return replace(
        leg,
        history=[*prior.history, *leg.history],
        messages=int(prior.messages) + int(leg.messages),
        message_bytes=int(prior.message_bytes) + int(leg.message_bytes),
        peak_memory_per_rank=_high_water(prior, leg),
    )


def _high_water(prior: Any, leg: Any) -> List[int]:
    """The element-wise max of two per-rank peak lists."""
    return [
        max(int(before), int(now))  # byte counts: 0 pads a ragged tail
        for before, now in zip_longest(
            prior.peak_memory_per_rank, leg.peak_memory_per_rank, fillvalue=0
        )
    ]


def relay_leg(
    observers: Sequence[Observer],
    prior: Any,
    *,
    n_iterations: Optional[int] = None,
    elapsed_s: float = 0.0,
    coverage: Optional[float] = None,
) -> Observer:
    """The event-side twin of :func:`fold_leg`: one observer re-emitting
    a leg's events to ``observers`` as the uninterrupted run's.

    ``iteration`` and ``n_iterations`` shift by ``len(prior.history)``,
    the traffic counters gain ``prior``'s, the per-rank memory peaks
    take ``prior``'s element-wise max and ``snapshot()`` folds ``prior``
    in (``prior=None`` shifts nothing).  ``elapsed_s`` stays
    per call, offset only by earlier epochs of the call.  A streaming
    epoch passes the run's total as ``n_iterations`` (its own would fire
    ``is_last`` early) and its ``coverage``.
    """
    done = len(prior.history) if prior is not None else 0
    messages = int(prior.messages) if prior is not None else 0
    message_bytes = int(prior.message_bytes) if prior is not None else 0

    def relay(event: IterationEvent) -> None:
        dispatch(observers, replace(
            event,
            iteration=done + event.iteration,
            n_iterations=(
                done + event.n_iterations if n_iterations is None
                else n_iterations
            ),
            elapsed_s=elapsed_s + event.elapsed_s,
            messages=messages + event.messages,
            message_bytes=message_bytes + event.message_bytes,
            peak_memory_per_rank=(
                event.peak_memory_per_rank if prior is None
                else _high_water(prior, event)
            ),
            snapshot=lambda: fold_leg(event.snapshot(), prior),
            coverage=coverage,
        ))

    return relay


@contextmanager
def raise_in_run(prior: Any) -> Iterator[None]:
    """The error-side twin of :func:`relay_leg`: a
    :class:`DivergenceError` raised inside the block by a leg that
    continues ``prior`` is re-raised as the uninterrupted run's —
    ``iteration`` shifted by ``len(prior.history)``, and a leg that
    diverged on its first iteration reports ``prior``'s last cost as
    the last finite one (``prior=None`` changes nothing)."""
    try:
        yield
    except DivergenceError as err:
        if prior is None or not len(prior.history):
            raise
        last = err.last_finite_cost
        raise DivergenceError(
            err.solver,
            len(prior.history) + err.iteration,
            float(prior.history[-1]) if last is None else last,
        ) from None


def run_session(
    solver_name: str,
    session: ExecutionSession,
    dataset: PtychoDataset,
    decomp: Decomposition,
    iterations: int,
    observers: Sequence[Observer] = (),
) -> ReconstructionResult:
    """The one iteration loop: step a launched ``session`` ``iterations``
    times, emit an event per iteration, stitch the final result.

    Every solver runs on this loop through :func:`run_plan` (the test
    suite's hand-written serial reference through its own in-process
    session), so whatever happens at the iteration boundary (tracing,
    observer events, later a health check) is written once.  The
    session is closed on every exit path, including ``step()`` or an
    observer raising (the service interrupts a leg by raising from one),
    and an event's ``snapshot()`` called after such a failure raises
    :class:`LegFailedError` on every executor.
    """
    tel = _obs.current()
    history: List[float] = []
    # Set once the session closed: the final result, or None if the leg
    # failed (no snapshot may then stitch its state).
    final: List[Optional[ReconstructionResult]] = []

    def result_snapshot() -> ReconstructionResult:
        # Materializes the session state *at call time*, so volume,
        # counters and history always describe the same moment (history
        # is read live, not frozen).  Once the session is closed (a
        # process session's shared memory is gone) that is the final
        # result, copied so no two snapshots share a volume.
        if final:
            if final[0] is None:
                raise LegFailedError(
                    f"{solver_name} leg failed: it leaves no state to "
                    "snapshot"
                )
            return replace(final[0], volume=final[0].volume.copy())
        return ReconstructionResult(
            volume=stitch(decomp, session.volumes(), dataset.n_slices),
            history=list(history),
            messages=session.messages,
            message_bytes=session.message_bytes,
            peak_memory_per_rank=session.per_rank_peaks,
            decomposition=decomp,
            probe=session.probe(),
        )

    # Taken after launch: ``elapsed_s`` counts from the first step.
    start = time.perf_counter()
    try:
        with session:  # closed on every exit path
            for it in range(iterations):
                if tel.enabled:
                    with tel.span("run.iteration", iteration=it):
                        cost = session.step()
                else:
                    cost = session.step()
                if not math.isfinite(cost):
                    raise DivergenceError(
                        solver_name, it, history[-1] if history else None
                    )
                history.append(cost)
                if observers:
                    dispatch(observers, IterationEvent(
                        solver=solver_name,
                        iteration=it,
                        n_iterations=iterations,
                        cost=cost,
                        elapsed_s=time.perf_counter() - start,
                        messages=session.messages,
                        message_bytes=session.message_bytes,
                        peak_memory_per_rank=session.per_rank_peaks,
                        snapshot=result_snapshot,
                    ))
            result = result_snapshot()
    except BaseException:
        final.append(None)
        raise
    final.append(result)
    return result


def run_plan(
    solver_name: str,
    plan: EnginePlan,
    iterations: int,
    observers: Sequence[Observer] = (),
) -> ReconstructionResult:
    """Launch ``plan`` on the executor its options name (``None`` = the
    ambient one) and run it to completion.

    A schedule-compiling solver is ``decompose`` +
    ``build_iteration_schedule`` + an :class:`EnginePlan` (its ``plan``
    method) + this call; the plan's ``telemetry`` flag is stamped here
    from the active recorder so worker processes trace exactly when the
    caller does.
    """
    plan = replace(plan, telemetry=_obs.current().enabled)
    session = resolve_executor(
        plan.options.executor, workers=plan.options.runtime_workers
    ).launch(plan)
    return run_session(
        solver_name, session, plan.dataset, plan.decomp, iterations, observers
    )


def schedule_probe_update(
    schedule: Schedule,
    decomp: Decomposition,
    last: Dict[int, int],
    probe_lr: Optional[float],
    probe_modes: Optional[int],
) -> None:
    """Append one iteration's probe refinement to ``schedule`` after the
    volume work (``last``: rank → its latest op uid, advanced here): one
    probe-gradient all-reduce — the probe is a single small global
    array — then each rank's step and, for a mode stack, its
    re-orthogonalization.

    The step is ``probe_lr``, or ``0.5 / N`` by default: the probe
    gradient is preconditioned by the *object* magnitude (|O| ~ 1 for a
    transmission function), not the probe intensity, so the object
    step's ``1/max|p|^2`` factor must not leak in; the sum over all
    ``N`` probe locations supplies the remaining scale.
    """
    lr = probe_lr if probe_lr is not None else 0.5 / max(
        decomp.scan.n_positions, 1
    )
    uid = schedule.add(
        ProbeSync(n_ranks=decomp.n_ranks), deps=sorted(set(last.values()))
    )
    for rank in range(decomp.n_ranks):
        last[rank] = schedule.add(
            ApplyProbeUpdate(rank=rank, lr=lr), deps=[uid]
        )
        if (probe_modes or 1) > 1:
            # Never scheduled at M=1, so single-mode schedules stay
            # identical to scalar ones.
            last[rank] = schedule.add(
                OrthogonalizeProbe(rank=rank), deps=[last[rank]]
            )


def solver_mesh(
    mesh: Any, n_ranks: Optional[int]
) -> Tuple[Optional[MeshLayout], Optional[int]]:
    """The ``(mesh, n_ranks)`` a distributed solver runs on: ``mesh`` may
    be spelled ``[rows, cols]`` (how a JSON config carries it), and with
    neither given the solver gets the CLI's small-cluster default of
    four ranks."""
    if mesh is None:
        return None, 4 if n_ranks is None else n_ranks
    if isinstance(mesh, MeshLayout):
        return mesh, n_ranks
    if (
        isinstance(mesh, (list, tuple))
        and len(mesh) == 2
        and all(isinstance(v, int) for v in mesh)
    ):
        return MeshLayout(mesh[0], mesh[1]), n_ranks
    raise SolverCapabilityError(
        f"mesh must be [rows, cols] (two ints), got {mesh!r}"
    )


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
        Cluster size (mesh chosen automatically; 4 when neither is
        given) or an explicit :class:`~repro.parallel.topology.MeshLayout`
        (or its JSON spelling ``[rows, cols]``).
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
    options / **option_fields:
        The run options as one
        :class:`~repro.runtime.options.RunOptions` (documented there)
        and/or by keyword; keywords override ``options``.  Specific to
        this solver: ``batch_size > 1`` batches only under
        ``mode="synchronous"`` (Alg. 1's per-probe local updates are
        order-dependent within a rank), and ``probe_modes > 1`` with
        ``refine_probe=True`` schedules an :class:`OrthogonalizeProbe`
        pass after each probe update.
    """

    #: The ``solver_params`` keys a config may set (the registry refuses
    #: any other with :class:`SolverCapabilityError`).
    accepted_params = RunOptions.names() | {
        "n_ranks", "mesh", "iterations", "lr", "mode", "sync_period",
        "planner", "halo", "compensate_local", "refine_probe", "probe_lr",
    }

    def __init__(
        self,
        n_ranks: Optional[int] = None,
        mesh: Union[MeshLayout, Sequence[int], None] = None,
        iterations: int = 10,
        lr: float = 0.5,
        mode: str = "alg1",
        sync_period: Union[str, int] = "iteration",
        planner: str = "appp",
        halo: Union[str, int] = "exact",
        compensate_local: bool = False,
        refine_probe: bool = False,
        probe_lr: Optional[float] = None,
        options: Optional[RunOptions] = None,
        **option_fields,
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
        self.options = RunOptions.of(options, **option_fields)
        self.mesh, self.n_ranks = solver_mesh(mesh, n_ranks)
        self.iterations = iterations
        self.lr = float(lr)
        self.mode = mode
        self.sync_period = sync_period
        self.planner = planner
        self.halo = halo
        self.compensate_local = compensate_local
        self.refine_probe = refine_probe
        self.probe_lr = probe_lr

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
        active = resolve_positions(
            self.options.positions, decomp.scan.n_positions
        )
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
            compensate_local=self.compensate_local,
            initial_probe=initial_probe,
            refine_probe=self.refine_probe,
            initial_volume=initial_volume,
            options=self.options,
        )

    def reconstruct(
        self,
        dataset: PtychoDataset,
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
        initial_probe:
            Starting probe estimate (defaults to the dataset's probe; pass
            a perturbed probe together with ``refine_probe=True`` for
            joint probe/object recovery).
        initial_volume:
            Warm-start volume (checkpoint restart); defaults to vacuum.
        """
        plan = self.plan(dataset, initial_probe, initial_volume)
        return run_plan("gd", plan, self.iterations, observers)
