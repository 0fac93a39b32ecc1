"""The numeric interpreter: executes schedules on real NumPy arrays.

One :class:`NumericEngine` hosts the per-rank state of a distributed
reconstruction — extended-tile volume, gradient accumulation buffer, the
rank's own measurement shard — and executes schedule ops in order.  All
inter-rank data moves through a communicator (payloads are
snapshot-copied), so the executed communication pattern *is* the
algorithm's, and message/byte counts are measured.

The engine is **executor-agnostic**: by default it hosts *every* rank of
the decomposition behind an in-process
:class:`~repro.parallel.comm.VirtualComm` (the serial reference), but a
``ranks=`` subset turns it into one worker's share of a real multi-process
run — ops whose ranks are all elsewhere are skipped and point-to-point
ops execute only their hosted side.  Collectives are the communicator's
in either case: an engine hosting every rank registers its own gradient
buffers with it, a worker's
:class:`~repro.runtime.process_comm.ProcessComm` was handed every rank's
shared-memory view by the runtime.  ``shared_arrays=`` lets the runtime
place tile volumes and gradient buffers in
``multiprocessing.shared_memory`` so the parent process can stitch and
all-reduce without copying.

Gradient truncation: with fixed-width halos (the paper's memory-efficient
configuration) a probe window can poke out of the extended tile.  The
engine then reads the missing object pixels as vacuum (1.0) and discards
gradient contributions outside the tile — exactly the approximation the
paper justifies by the gradients being "almost zero everywhere outside the
circle" (Sec. III).  With ``halo="exact"`` no truncation occurs and
synchronous-mode runs match the serial reference sweep bit-for-bit
(tested; the serial solver *is* this engine on one rank).

Sweep plans: every gradient group is compiled once per schedule into
*plan rows* — one per ``(rank, probe index)``, holding the rank's state,
the window's slices in the tile and in the window (empty when the window
misses the tile entirely) and whether it needs vacuum padding — so a
sweep step gathers and scatters by slice assignment with no geometry
left to resolve.  The probe is permuted into the kernel's FFT-native
layout once per sweep, not once per kernel call (it only changes between
sweeps).  Handlers live in a module-level table, so an engine holds no
bound methods of itself and dies by reference count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend.base import resolve_backend, resolve_precision
import time

from repro.core.decomposition import Decomposition
from repro.core.passes import TAG_NEIGHBOR
from repro.obs import telemetry as _obs
from repro.data import (
    DiffractionStore,
    InMemoryStore,
    open_store,
    resolve_batch_size,
)
from repro.parallel.comm import VirtualComm
from repro.parallel.memory import MemoryTracker
from repro.physics.dataset import PtychoDataset
from repro.physics.multislice import MultisliceModel
from repro.physics.probe import make_mode_stack, orthogonalize_modes
from repro.runtime.executor import EnginePlan
from repro.runtime.options import RunOptions
from repro.schedule.ops import (
    AllReduceGradient,
    ApplyBufferUpdate,
    ApplyProbeUpdate,
    Barrier,
    BufferExchange,
    ComputeGradients,
    LocalSolve,
    Op,
    OrthogonalizeProbe,
    ProbeSync,
    ResetBuffer,
    Schedule,
    VoxelPaste,
)
from repro.utils.geometry import Rect

__all__ = ["RankState", "NumericEngine"]

#: Telemetry span name per schedule op — the engine's phase vocabulary
#: (gradient compute, halo exchange, collectives, buffer accumulate),
#: matching the paper's per-phase timing decomposition.
_PHASE_OF = {
    ComputeGradients: "engine.compute",
    LocalSolve: "engine.local_solve",
    BufferExchange: "engine.exchange",
    AllReduceGradient: "engine.allreduce",
    ApplyBufferUpdate: "engine.apply",
    ResetBuffer: "engine.apply",
    VoxelPaste: "engine.paste",
    Barrier: "engine.barrier",
    ProbeSync: "engine.probe_sync",
    ApplyProbeUpdate: "engine.apply",
    OrthogonalizeProbe: "engine.orthogonalize",
}

#: The ops that evaluate probe positions (and may share a kernel call).
_GRADIENT_OPS = (ComputeGradients, LocalSolve)


def _updates_locally(op: Union[ComputeGradients, LocalSolve]) -> bool:
    """True when every evaluation of ``op`` is followed by a local update
    (Alg. 1 line 8; each ``LocalSolve`` SGD step) that changes the volume
    the rank's next position reads — its positions must stay sequential."""
    return isinstance(op, LocalSolve) or op.local_update


@dataclass
class RankState:
    """Per-rank distributed state."""

    rank: int
    core: Rect
    ext: Rect
    volume: np.ndarray
    accbuf: np.ndarray
    localbuf: Optional[np.ndarray]
    measurements: Dict[int, np.ndarray] = field(default_factory=dict)
    #: Snapshot used by direct-neighbour exchanges (see passes.py).
    neighbor_snapshot: Optional[np.ndarray] = None
    cost_accum: float = 0.0
    #: Per-rank probe copy + gradient buffer (probe refinement only).
    probe: Optional[np.ndarray] = None
    probe_grad: Optional[np.ndarray] = None


#: One plan row: ``(state, probe index, the window's views into the
#: tile's volume, gradient buffer and local buffer (``None`` without
#: one), its index into the step's ``(B, S, w, w)`` stack, padded?)``;
#: views and index lead with the slice axis and are empty when the
#: window misses the tile.
_Row = Tuple[
    RankState, int, np.ndarray, np.ndarray, Optional[np.ndarray],
    Tuple[Union[int, slice], ...], bool,
]

#: A lockstep group resolved once (see :meth:`NumericEngine._sweep_plan`):
#: ``(first op, member states, local-update scale, per kernel call its
#: rows)``.
_SweepPlan = Tuple[Op, List[RankState], float, List[List[_Row]]]


#: A compiled program entry: ``(handler, its arguments after the engine,
#: the ops it runs)``.
_Entry = Tuple[Callable[..., None], Sequence[object], List[Op]]


class NumericEngine:
    """Executes schedules over a dataset + decomposition (see module doc).

    Parameters
    ----------
    dataset:
        The acquisition to reconstruct.
    decomp:
        Tile decomposition (gradient or halo-exchange flavour).
    lr:
        Gradient-descent step size.
    comm / memory:
        Optional externally-supplied communicator and memory tracker
        (created internally when omitted).
    compensate_local:
        Ablation flag: subtract the already-applied local gradients from
        the buffer update (Alg. 1 as printed applies them twice: once
        as the immediate local step, once inside the accumulated buffer).
    initial_probe:
        Override the dataset's (true) probe as the reconstruction's probe
        estimate — the starting point for probe refinement.  Either a
        scalar ``(w, w)`` probe or an ``(M, w, w)`` mode stack matching
        ``probe_modes``; a scalar probe under ``probe_modes > 1`` is
        deterministically expanded (see
        :func:`repro.physics.probe.make_mode_stack`).
    refine_probe:
        Allocate per-rank probe copies + gradient buffers and accumulate
        probe gradients during ``ComputeGradients`` and ``LocalSolve``
        sweeps (consumed by :class:`ProbeSync`/:class:`ApplyProbeUpdate`).
    initial_volume:
        Warm-start the reconstruction from a full ``(slices, rows, cols)``
        volume (each rank receives its extended-tile restriction);
        defaults to vacuum.
    ranks:
        The subset of decomposition ranks this engine hosts (``None`` =
        all of them, the serial reference).  With a subset, the supplied
        ``comm`` must be able to reach the other ranks' hosts.
    shared_arrays:
        Optional pre-allocated storage for per-rank tile arrays, keyed
        ``("volume", rank)`` / ``("accbuf", rank)`` — how the process
        runtime hands the engine views into shared-memory segments.  The
        engine initializes their contents; shapes and dtypes must match
        what it would have allocated itself.
    options / **option_fields:
        The run options as one
        :class:`~repro.runtime.options.RunOptions` (documented there)
        and/or by keyword; keywords override ``options``.  The engine
        consumes six of them — ``backend``, ``dtype``, ``data_source``,
        ``batch_size``, ``prefetch``, ``probe_modes`` (placement and
        ``positions`` are the reconstructor's, compiled into the
        schedule).  Every per-rank array — extended-tile volume,
        accumulation buffers, probe copies — is allocated at the
        precision policy's complex width, so the memory tracker measures
        the width actually in use.  With ``probe_modes = M > 1`` the
        forward model sums intensity over an ``(M, w, w)`` stack, probe
        gradients/sync/updates are per-mode, and
        :class:`OrthogonalizeProbe` ops re-orthogonalize the stack.
        ``batch_size > 1`` applies only to order-independent gradient
        accumulation (synchronous-mode ``ComputeGradients``); ranks are
        independent between communication ops, so co-hosted ranks that
        contribute one position each share the call (the lockstep
        grouping, see :meth:`execute`).  Every setting is bit-identical
        to per-position execution (pinned by the ``tests/data`` parity
        suite and ``tests/core/test_lockstep``).
    """

    def __init__(
        self,
        dataset: PtychoDataset,
        decomp: Decomposition,
        lr: float,
        comm: Optional[VirtualComm] = None,
        memory: Optional[MemoryTracker] = None,
        compensate_local: bool = False,
        initial_probe: Optional[np.ndarray] = None,
        refine_probe: bool = False,
        initial_volume: Optional[np.ndarray] = None,
        ranks: Optional[Sequence[int]] = None,
        shared_arrays: Optional[Mapping[Tuple[str, int], np.ndarray]] = None,
        options: Optional[RunOptions] = None,
        **option_fields,
    ) -> None:
        self.options = options = RunOptions.of(options, **option_fields)
        self.dataset = dataset
        self.decomp = decomp
        self.lr = float(lr)
        self.batch_size = resolve_batch_size(options.batch_size)
        # open_store geometry-checks every source (paths, instances)
        # against the dataset.
        self.store, self._owns_store = open_store(
            options.data_source, dataset=dataset, prefetch=options.prefetch
        )
        #: In-memory stores pin each rank's shard (the reference
        #: behaviour and its byte accounting); out-of-core stores read
        #: through their bounded chunk cache instead.
        self._pin_measurements = isinstance(self.store, InMemoryStore)
        if ranks is None:
            self.hosted_ranks: Tuple[int, ...] = tuple(
                range(decomp.n_ranks)
            )
        else:
            self.hosted_ranks = tuple(sorted(set(int(r) for r in ranks)))
            for r in self.hosted_ranks:
                if not (0 <= r < decomp.n_ranks):
                    raise ValueError(
                        f"hosted rank {r} out of range "
                        f"[0,{decomp.n_ranks})"
                    )
            if not self.hosted_ranks:
                raise ValueError("ranks must name at least one rank")
        self._hosted_set = frozenset(self.hosted_ranks)
        self._shared = dict(shared_arrays) if shared_arrays else {}
        self.comm = comm if comm is not None else VirtualComm(decomp.n_ranks)
        self.memory = memory if memory is not None else MemoryTracker(decomp.n_ranks)
        self.compensate_local = compensate_local
        self.refine_probe = refine_probe
        n_modes = options.probe_modes or 1
        self.backend = resolve_backend(options.backend)
        self.precision = resolve_precision(options.dtype)
        self._cdtype = self.precision.complex_dtype
        self.model: MultisliceModel = dataset.multislice_model(
            backend=self.backend, dtype=self.precision
        )
        scalar_shape = dataset.probe.array.shape
        if n_modes > 1:
            stack_shape = (n_modes,) + scalar_shape
            if initial_probe is None:
                # Deterministic expansion of the dataset probe.
                self.probe = np.asarray(
                    make_mode_stack(dataset.probe.array, n_modes),
                    dtype=self._cdtype,
                )
            elif initial_probe.shape == stack_shape:
                self.probe = np.asarray(initial_probe, dtype=self._cdtype)
            elif initial_probe.shape == scalar_shape:
                # Warm-starting a mixed-state run from a scalar probe
                # (e.g. a single-mode archive) expands it the same
                # deterministic way the cold start does.
                self.probe = np.asarray(
                    make_mode_stack(initial_probe, n_modes),
                    dtype=self._cdtype,
                )
            else:
                raise ValueError(
                    f"initial probe shape {initial_probe.shape} != "
                    f"{stack_shape} (or scalar {scalar_shape})"
                )
        else:
            if initial_probe is not None:
                arr = np.asarray(initial_probe)
                if arr.ndim == 3 and arr.shape == (1,) + scalar_shape:
                    # A single-mode stack is the scalar probe: squeeze so
                    # the M=1 path stays bit-identical to the historical
                    # scalar representation everywhere downstream.
                    arr = arr[0]
                if arr.shape != scalar_shape:
                    raise ValueError(
                        f"initial probe shape {initial_probe.shape} != "
                        f"{scalar_shape}"
                    )
                self.probe = np.asarray(arr, dtype=self._cdtype)
            else:
                self.probe = np.asarray(
                    dataset.probe.array, dtype=self._cdtype
                )
        self.n_slices = dataset.n_slices
        if initial_volume is not None:
            expected = (self.n_slices, *dataset.object_shape)
            if initial_volume.shape != expected:
                raise ValueError(
                    f"initial volume shape {initial_volume.shape} != {expected}"
                )
        self._initial_volume = initial_volume
        self.states: List[RankState] = [
            self._init_rank(decomp.tiles[r]) for r in self.hosted_ranks
        ]
        self._state_by_rank: Dict[int, RankState] = {
            s.rank: s for s in self.states
        }
        if len(self.states) == decomp.n_ranks:
            # Hosting every rank, the engine's own buffers are all the
            # gradient all-reduce needs (a subset host's communicator
            # already holds every rank's shared view).
            self.comm.register_tile_buffers(
                {s.rank: s.accbuf for s in self.states},
                {s.rank: s.ext.slices_in(decomp.bounds) for s in self.states},
            )
        # The ambient recorder at construction time: engines are built
        # inside the run's activation scope (serial executor, worker
        # main), so this binds the per-run/per-worker recorder once
        # instead of a thread-local lookup per op.
        self._obs = _obs.current()
        #: One-slot cache of :meth:`_program`: (schedule, its length, program).
        self._compiled: Optional[Tuple[Schedule, int, List[_Entry]]] = None

    @classmethod
    def from_plan(
        cls,
        plan: EnginePlan,
        *,
        comm: Optional[VirtualComm] = None,
        ranks: Optional[Sequence[int]] = None,
        shared_arrays: Optional[Mapping[Tuple[str, int], np.ndarray]] = None,
        data_source: Union[str, DiffractionStore, None] = None,
    ) -> "NumericEngine":
        """The engine a launch ``plan`` describes — the one place plan
        fields become engine keywords.  The plan's options are forwarded
        whole (by identity), so a new run option needs no wiring here.
        The keyword arguments are what placement adds: a
        worker's communicator, hosted ranks, shared-memory tile storage
        and (``None`` = the plan's) its own re-opened store handle.
        """
        options = plan.options
        if data_source is not None:
            options = replace(options, data_source=data_source)
        return cls(
            plan.dataset,
            plan.decomp,
            lr=plan.lr,
            comm=comm,
            compensate_local=plan.compensate_local,
            initial_probe=plan.initial_probe,
            refine_probe=plan.refine_probe,
            initial_volume=plan.initial_volume,
            ranks=ranks,
            shared_arrays=shared_arrays,
            options=options,
        )

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _tile_array(
        self, kind: str, rank: int, shape: Tuple[int, ...]
    ) -> np.ndarray:
        """Storage for one per-rank tile array: a runtime-supplied
        (shared-memory) view when registered, a fresh allocation
        otherwise.  Contents are initialized by the caller."""
        arr = self._shared.get((kind, rank))
        if arr is None:
            return np.empty(shape, dtype=self._cdtype)
        if arr.shape != shape or arr.dtype != self._cdtype:
            raise ValueError(
                f"shared {kind!r} array for rank {rank} is "
                f"{arr.shape}/{arr.dtype}, engine needs "
                f"{shape}/{self._cdtype}"
            )
        return arr

    def _init_rank(self, tile) -> RankState:
        shape = (self.n_slices, tile.ext.height, tile.ext.width)
        volume = self._tile_array("volume", tile.rank, shape)
        if self._initial_volume is not None:
            sl = tile.ext.slices_in(self.decomp.bounds)
            volume[...] = self._initial_volume[:, sl[0], sl[1]]
        else:
            volume[...] = 1.0
        accbuf = self._tile_array("accbuf", tile.rank, shape)
        accbuf[...] = 0.0
        localbuf = (
            np.zeros(shape, dtype=self._cdtype) if self.compensate_local else None
        )
        # Distribute the measurement shard: each rank holds only the
        # probes it evaluates (own + extras for the halo-exchange
        # flavour) — the distribution that drives the memory tables.
        # The in-memory reference pins the shard as views (the
        # historical behaviour, bit for bit); out-of-core stores read
        # on demand and account their bounded chunk cache instead.
        if self._pin_measurements:
            measurements = {
                i: np.asarray(self.store.read(i)) for i in tile.all_probes
            }
            meas_bytes = sum(int(m.nbytes) for m in measurements.values())
        else:
            measurements = {}
            meas_bytes = int(self.store.shard_nbytes(tile.all_probes))
        state = RankState(
            rank=tile.rank,
            core=tile.core,
            ext=tile.ext,
            volume=volume,
            accbuf=accbuf,
            localbuf=localbuf,
        )
        state.measurements = measurements
        self.memory.allocate_array(tile.rank, "volume", volume)
        self.memory.allocate_array(tile.rank, "accbuf", accbuf)
        self.memory.allocate(tile.rank, "measurements", meas_bytes)
        self.memory.allocate_typed(
            tile.rank, "probe", self.probe.shape, self.probe.dtype
        )
        if localbuf is not None:
            self.memory.allocate_array(tile.rank, "localbuf", localbuf)
        if self.refine_probe:
            state.probe = self.probe.copy()
            state.probe_grad = np.zeros_like(self.probe)
            self.memory.allocate_array(
                tile.rank, "probe_grad", state.probe_grad
            )
        return state

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, schedule: Schedule) -> None:
        """Run this engine's share of ``schedule`` in order.

        Hosting all ranks (the default), that is every op; hosting a
        subset, ops whose ranks are all elsewhere are skipped — the
        remaining sequence is exactly this worker's merged SPMD program.
        Runs of gradient ops on distinct hosted ranks execute as one
        lockstep sweep (see :meth:`_program`); a traced run executes the
        same program.

        Floating-point overflow and invalid values pass silently: a
        diverging run's non-finite cost is reported once, as
        :class:`~repro.core.reconstructor.DivergenceError`, not as a
        stream of numpy warnings from every executor's workers.
        """
        tel = self._obs
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for handler, args, ops in self._program(schedule):
                if not tel.enabled:
                    handler(self, *args)
                    continue
                kind = type(ops[0])
                # Attribute the span to the lowest hosted rank it
                # touches — point-to-point ops and fused sweeps appear
                # on one timeline, not several, which keeps per-rank
                # rows readable (a sweep names its members in
                # ``ranks=``).
                ranks = sorted(
                    self._hosted_set.intersection(
                        r for op in ops for r in op.ranks()
                    )
                )
                span_args = {"ranks": ranks} if kind in _GRADIENT_OPS else {}
                with tel.span(
                    _PHASE_OF.get(kind, "engine.op"), rank=ranks[0],
                    **span_args,
                ):
                    handler(self, *args)

    def _program(self, schedule: Schedule) -> List[_Entry]:
        """This engine's program for ``schedule``, compiled once per
        schedule object: the hosted ops in order as ``(handler, its
        arguments, ops)`` calls, with every maximal run of consecutive
        *fusable* gradient ops folded into one lockstep group that
        :meth:`_op_sweep` runs as a single sweep of its
        :meth:`_sweep_plan`.

        Ops fuse when they are all ``ComputeGradients`` with the same
        ``local_update`` or all ``LocalSolve`` with the same ``lr`` (a
        group takes one local step size), sit on pairwise distinct
        ranks (a rank's own ops stay sequential) and contribute one
        position per kernel call.  That is exact: members own disjoint
        :class:`RankState`, each rank's position order is untouched, no
        communication op lies inside a run, and per-item batched values
        equal scalar ones bit for bit.  An order-independent op at
        ``batch_size > 1`` is a group of one and keeps its within-rank
        batches — its call is already wide.
        """
        cached = self._compiled
        if (
            cached is not None
            and cached[0] is schedule
            and cached[1] == len(schedule)
        ):
            return cached[2]
        groups: List[List[Op]] = []
        for op in schedule:
            if self._hosted_set.isdisjoint(op.ranks()):
                continue
            if type(op) not in _DISPATCH:  # pragma: no cover
                raise TypeError(
                    f"numeric engine cannot run {type(op).__name__}"
                )
            if groups and self._fuses(groups[-1], op):
                groups[-1].append(op)
            else:
                groups.append([op])
        program = [
            (_DISPATCH[type(ops[0])], (self._sweep_plan(ops),), ops)
            if type(ops[0]) in _GRADIENT_OPS
            else (_DISPATCH[type(ops[0])], ops, ops)
            for ops in groups
        ]
        self._compiled = (schedule, len(schedule), program)
        return program

    def _sweep_plan(
        self, ops: Sequence[Union[ComputeGradients, LocalSolve]]
    ) -> _SweepPlan:
        """Resolve a lockstep group's geometry once: one plan row per
        position, batched ``_positions_per_call`` positions per member
        and step.  A row carries its window's views into the tile arrays,
        which never move, so a sweep slices nothing per row.  A window
        the extended tile cuts off is *padded*: its pixels outside the
        tile read as vacuum and its gradient there is discarded."""
        window_of = self.dataset.scan.window_of
        states = [self._state(op.rank) for op in ops]
        width = self._positions_per_call(ops[0])
        longest = max(len(op.probe_indices) for op in ops)
        steps: List[List[_Row]] = []
        for start in range(0, longest, width):
            rows: List[_Row] = []
            for state, op in zip(states, ops):
                for idx in op.probe_indices[start : start + width]:
                    window = window_of(idx)
                    inner = window.intersect(state.ext)
                    tile_sl = (slice(None), slice(0, 0), slice(0, 0))
                    at = (len(rows), *tile_sl)
                    if inner is not None:
                        tile_sl = (slice(None), *inner.slices_in(state.ext))
                        at = (len(rows), slice(None), *inner.slices_in(window))
                    local = state.localbuf
                    rows.append((
                        state, idx, state.volume[tile_sl],
                        state.accbuf[tile_sl],
                        None if local is None else local[tile_sl],
                        at, inner != window,
                    ))
            steps.append(rows)
        head = ops[0]
        scale = -(head.lr if isinstance(head, LocalSolve) else self.lr)
        return head, states, scale, steps

    def _positions_per_call(self, op: Op) -> int:
        """Positions a gradient op contributes to each kernel call:
        ``batch_size`` while its evaluations are order-independent, one
        when each is followed by a local update."""
        return 1 if _updates_locally(op) else self.batch_size

    def _fuses(self, group: List[Op], op: Op) -> bool:
        """Whether ``op`` may join the lockstep ``group`` that precedes
        it (see :meth:`_program`)."""
        head = group[0]
        return (
            type(op) in _GRADIENT_OPS
            and type(op) is type(head)
            and (not isinstance(op, LocalSolve) or op.lr == head.lr)
            and _updates_locally(op) == _updates_locally(head)
            and self._positions_per_call(op) == 1
            and all(op.rank != member.rank for member in group)
        )

    def iteration_cost(self) -> float:
        """Sum of per-probe data-fit values recorded since the last call
        (the sweep-cost convergence signal of Fig. 9)."""
        return sum(self.iteration_costs().values())

    def iteration_costs(self) -> Dict[int, float]:
        """Per-hosted-rank sweep costs since the last call (and reset) —
        what a worker ships home so the parent can reproduce the serial
        rank-ordered summation bit-for-bit."""
        costs = {s.rank: s.cost_accum for s in self.states}
        for s in self.states:
            s.cost_accum = 0.0
        return costs

    def volumes(self) -> List[np.ndarray]:
        """Hosted extended-tile volumes (live references), rank order."""
        return [s.volume for s in self.states]

    def current_probe(self) -> Optional[np.ndarray]:
        """A copy of rank 0's probe estimate — ``None`` unless probe
        refinement is on and rank 0 is hosted here.  (All ranks hold the
        same probe after each :class:`ProbeSync`; rank 0's copy is the
        canonical result, matching the serial reference.)"""
        state = self._state_by_rank.get(0)
        if not self.refine_probe or state is None or state.probe is None:
            return None
        return state.probe.copy()

    def _state(self, rank: int) -> RankState:
        return self._state_by_rank[rank]

    def close(self) -> None:
        """Release the measurement store (when this engine opened it;
        caller-supplied store instances stay open).  Idempotent."""
        if self._owns_store and self.store is not None:
            self.store.close()
            self._owns_store = False

    def __enter__(self) -> "NumericEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Measurement reads (store-backed)
    # ------------------------------------------------------------------
    def _measured(self, rows: Sequence[_Row]) -> np.ndarray:
        """``(B, det, det)`` measured stack at compute precision, one
        frame per plan row — from the pinned shards when present, else
        one gathered store read.  The conversion is elementwise, so each
        frame is bit-identical to a single read."""
        if self._pin_measurements:
            stack = np.stack([row[0].measurements[row[1]] for row in rows])
        else:
            indices = [row[1] for row in rows]
            t0 = time.perf_counter()
            stack = self.store.read_batch(indices)
            if self._obs.enabled:
                self._obs.add({
                    "store.read.calls": 1,
                    "store.read.frames": len(indices),
                    "store.read.seconds": time.perf_counter() - t0,
                })
        return np.asarray(stack, dtype=self.precision.real_dtype)

    # ------------------------------------------------------------------
    # Op handlers
    # ------------------------------------------------------------------
    def _op_sweep(self, plan: _SweepPlan) -> None:
        """Run one lockstep group (see :meth:`_program`) as a sweep of
        its :meth:`_sweep_plan`.

        Step ``k`` gathers its plan rows — the ``k``-th position(s) of
        every member that still has one; ragged tails just shrink the
        batch — into a ``(B, S, w, w)`` stack from the rows' volume
        views (padded rows start from vacuum), runs one batched
        multislice call, then scatters and accumulates cost row by row
        in place through the same views, and applies the local update
        (the stack's local steps scaled in one multiply): the same
        floating-point accumulation sequence per rank as evaluating it
        alone.  A member contributes several positions per call only
        when no volume write happens between its reads
        (:meth:`_positions_per_call`), so all patches of a step are
        gathered before any scatter.

        ``ComputeGradients`` accumulates into the gradient buffer (plus
        Alg. 1's immediate local step when ``local_update``);
        ``LocalSolve`` is the halo-voxel-exchange local phase: plain SGD
        on the extended tile over own + extra probes, no buffer
        involvement.  Under ``refine_probe`` both accumulate each
        position's probe gradient — taken at the volume that position
        read, before its local step — for the next :class:`ProbeSync`.
        The group shares its first member's probe: every
        rank holds the same probe between :class:`ProbeSync` updates,
        and it changes only between sweeps, so it is permuted into the
        kernel's FFT-native layout once per sweep.
        """
        head, states, scale, steps = plan
        solve = isinstance(head, LocalSolve)
        local_update = _updates_locally(head)
        if not solve:
            for state in states:
                state.neighbor_snapshot = None  # buffers change: invalidate
        probe = states[0].probe if states[0].probe is not None else self.probe
        native_probe = self.model.native_probe(probe)
        shape = (self.n_slices, self.model.window, self.model.window)
        for rows in steps:
            # Named, not inlined: the previous step's stack stays
            # allocated until this one is built, the buffer lifetime the
            # batched path always had (inlined, `gd-batched-mixed-store`
            # measured 5 % slower with identical work).
            patches = np.empty((len(rows), *shape), dtype=self._cdtype)
            for _, _, volume, _, _, at, padded in rows:
                if padded:
                    patches[at[0]] = 1.0
                patches[at] = volume
            result = self.model.cost_and_gradient_batch(
                probe,
                patches,
                self._measured(rows),
                compute_probe_grad=self.refine_probe,
                native_probe=native_probe,
            )
            probe_grad = result.probe_grads
            if probe_grad is not None and probe_grad.ndim == 4:
                # Mixed-state stack (M, B, w, w): item b is [:, b].
                probe_grad = probe_grad.swapaxes(0, 1)
            costs, grads = result.costs.tolist(), result.object_grads
            for b, (state, _, _, acc, local, at, _) in enumerate(rows):
                state.cost_accum += costs[b]
                if not solve:
                    grad = grads[at]
                    acc += grad
                    if local is not None:
                        local += grad
                if probe_grad is not None:
                    state.probe_grad += probe_grad[b]
            if local_update:
                # Every row's local step ``scale * grad`` in one
                # multiply, in place: the stack is not read again, and
                # each row is its rank's only one in the step.
                np.multiply(scale, grads, out=grads)
                for _, _, volume, _, _, at, _ in rows:
                    volume += grads[at]

    def _op_exchange(self, op: BufferExchange) -> None:
        # Each side runs on the worker hosting it; a serial engine hosts
        # both and performs the send and the (immediately satisfied)
        # receive back-to-back, exactly as before.
        src_state = self._state_by_rank.get(op.src)
        dst_state = self._state_by_rank.get(op.dst)
        if op.tag == TAG_NEIGHBOR:
            # Direct-neighbour planner: pairwise symmetric adds must use
            # pre-exchange values (see passes.build_neighbor_exchanges).
            # Snapshot each hosted endpoint before its buffer is first
            # read *or* written within the exchange phase — the snapshot
            # depends only on rank-local state, so per-rank program order
            # reproduces the serial content exactly.
            if src_state is not None and src_state.neighbor_snapshot is None:
                src_state.neighbor_snapshot = src_state.accbuf.copy()
            if dst_state is not None and dst_state.neighbor_snapshot is None:
                dst_state.neighbor_snapshot = dst_state.accbuf.copy()
        if src_state is not None:
            source_buffer = (
                src_state.neighbor_snapshot
                if op.tag == TAG_NEIGHBOR
                else src_state.accbuf
            )
            src_sl = op.region.slices_in(src_state.ext)
            payload = source_buffer[:, src_sl[0], src_sl[1]]
            self.comm.send(payload, op.src, op.dst, tag=op.tag)
        if dst_state is not None:
            received = self.comm.recv(op.dst, op.src, tag=op.tag)
            dst_sl = op.region.slices_in(dst_state.ext)
            if op.mode == "add":
                dst_state.accbuf[:, dst_sl[0], dst_sl[1]] += received
            else:  # replace
                dst_state.accbuf[:, dst_sl[0], dst_sl[1]] = received

    def _op_allreduce(self, op: AllReduceGradient) -> None:
        bounds = self.decomp.bounds
        self.comm.accbuf_allreduce(
            (self.n_slices, bounds.height, bounds.width)
        )

    def _op_apply(self, op: ApplyBufferUpdate) -> None:
        state = self._state(op.rank)
        if state.localbuf is not None:
            state.volume -= op.lr * (state.accbuf - state.localbuf)
        else:
            state.volume -= op.lr * state.accbuf

    def _op_reset(self, op: ResetBuffer) -> None:
        state = self._state(op.rank)
        state.accbuf[...] = 0.0
        if state.localbuf is not None:
            state.localbuf[...] = 0.0
        state.neighbor_snapshot = None

    def _op_paste(self, op: VoxelPaste) -> None:
        src_state = self._state_by_rank.get(op.src)
        dst_state = self._state_by_rank.get(op.dst)
        if src_state is not None:
            src_sl = op.region.slices_in(src_state.ext)
            payload = src_state.volume[:, src_sl[0], src_sl[1]]
            self.comm.send(payload, op.src, op.dst, tag=op.tag)
        if dst_state is not None:
            received = self.comm.recv(op.dst, op.src, tag=op.tag)
            dst_sl = op.region.slices_in(dst_state.ext)
            dst_state.volume[:, dst_sl[0], dst_sl[1]] = received

    def _op_barrier(self, op: Barrier) -> None:
        # In-process comms sequentialize anyway (their barrier is a
        # no-op); across workers this is a real synchronization point.
        self.comm.barrier()

    def _op_probe_sync(self, op: ProbeSync) -> None:
        """All-reduce the per-rank probe gradients (probe refinement).

        The comm receives one contribution per *hosted* rank and
        completes the sum in ascending rank order wherever the other
        ranks live.
        """
        if not self.refine_probe:
            raise RuntimeError("ProbeSync without refine_probe=True")
        contributions = [s.probe_grad for s in self.states]
        total = self.comm.allreduce_sum(contributions)
        for state in self.states:
            state.probe_grad[...] = total

    def _op_probe_update(self, op: ApplyProbeUpdate) -> None:
        state = self._state(op.rank)
        if state.probe is None or state.probe_grad is None:
            raise RuntimeError("ApplyProbeUpdate without refine_probe=True")
        state.probe -= op.lr * state.probe_grad
        state.probe_grad[...] = 0.0

    def _op_orthogonalize(self, op: OrthogonalizeProbe) -> None:
        state = self._state(op.rank)
        if state.probe is None:
            raise RuntimeError("OrthogonalizeProbe without refine_probe=True")
        state.probe[...] = orthogonalize_modes(state.probe)


#: Handler per op type, called ``handler(engine, *args)``.  Plain
#: functions, not bound methods: an engine that held its own bound
#: methods would sit in a reference cycle and outlive its last user
#: until the cyclic GC ran, tile arrays and all.
_DISPATCH: Dict[type, Callable[..., None]] = {
    ComputeGradients: NumericEngine._op_sweep,
    LocalSolve: NumericEngine._op_sweep,
    BufferExchange: NumericEngine._op_exchange,
    AllReduceGradient: NumericEngine._op_allreduce,
    ApplyBufferUpdate: NumericEngine._op_apply,
    ResetBuffer: NumericEngine._op_reset,
    VoxelPaste: NumericEngine._op_paste,
    Barrier: NumericEngine._op_barrier,
    ProbeSync: NumericEngine._op_probe_sync,
    ApplyProbeUpdate: NumericEngine._op_probe_update,
    OrthogonalizeProbe: NumericEngine._op_orthogonalize,
}
