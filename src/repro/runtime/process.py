"""``ProcessExecutor`` — real multi-process execution of rank programs.

Placement: the decomposition's ranks are split into contiguous blocks,
one block per worker process (``workers=`` bounds the pool; the default
is one worker per rank capped at the CPU count).  Each worker builds a
:class:`~repro.core.engine.NumericEngine` hosting its block and executes
the shared schedule — the engine skips ops whose ranks live elsewhere,
so every worker runs exactly its merged SPMD program.

Storage: every rank's extended-tile **volume** and **gradient buffer**
live in ``multiprocessing.shared_memory`` segments created by the
parent.  Workers mutate them in place (the engine never rebinds tile
arrays), the gradient all-reduce is a barrier-bracketed rank-ordered
reduction over the shared buffers, and the parent stitches final volumes
straight out of shared memory — no result pickling.

Messaging: each worker's communicator is a
:class:`~repro.runtime.process_comm.ProcessComm` — the serial
:class:`~repro.parallel.comm.VirtualComm` plus a transport.  A message
between two ranks of one worker stays in that worker's mailbox; only a
message to a rank hosted elsewhere is pickled onto that rank's inbox
queue.  Matching and byte accounting are the inherited ones.

Choreography: workers initialize, report readiness, then step one
iteration per parent command and block — so between iterations the
parent can safely read shared volumes (observer snapshots) and sum the
workers' traffic counters.  Costs are reported per rank and summed
parent-side in rank order, which keeps the whole run — volumes, history,
traffic counts — fingerprint-identical to the serial executor on the
numpy backend.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import queue as queue_mod
import threading
import time
import traceback
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.backend.base import resolve_precision
from repro.obs import telemetry as _obs
from repro.runtime.executor import (
    EnginePlan,
    ExecutionSession,
    Executor,
    register_executor,
)
from repro.runtime.process_comm import CommChannels, ProcessComm

__all__ = [
    "ProcessExecutor",
    "SegmentInUseError",
    "partition_ranks",
    "start_child",
]

logger = logging.getLogger(__name__)

# Registering/unregistering with multiprocessing's resource tracker takes
# a process-wide RLock.  With fork workers, a child forked by one thread
# while another thread holds that lock (creating or unlinking a segment
# or semaphore for a different session) inherits it permanently locked
# and deadlocks on its first attach.  Serializing every tracker-touching
# span in this module — the only shm/semaphore user in-process — with
# every fork (see :func:`start_child`) keeps the lock free at every fork
# point, so concurrent sessions and service legs are safe.
_TRACKER_LOCK = threading.Lock()


def start_child(ctx: Any, target: Any, args: tuple, name: str, daemon: bool):
    """Start ``target(*args)`` in a new process of context ``ctx``.

    The one fork site of the package: rank workers and service legs both
    start here.  Call it holding ``_TRACKER_LOCK``, together with any
    other step that must not be split from the fork (the service creates
    a leg's pipe and closes its write end under the same hold).  The
    child re-creates the module locks it inherited before it runs
    ``target`` (:func:`_reinit_inherited_locks`).
    """
    proc = ctx.Process(
        target=_child_main, args=(target, args), name=name, daemon=daemon
    )
    proc.start()
    return proc


def _child_main(target: Any, args: tuple) -> None:
    _reinit_inherited_locks()
    target(*args)


def _reinit_inherited_locks() -> None:
    """Give a freshly forked child its own copies of the module locks.

    The fork snapshots only the calling thread, so a lock held at that
    instant by the forking thread (``_TRACKER_LOCK``, always) or by any
    other parent thread (the resource tracker's lock under a GC
    finalizer, the backend registry's ``_LOCK``) would never be released
    in the child.  The child is single-threaded here, so replacing the
    locks is safe; under spawn they are fresh anyway and the swap is a
    no-op in effect.
    """
    global _TRACKER_LOCK
    from multiprocessing import resource_tracker

    from repro.backend import base

    _TRACKER_LOCK = threading.Lock()
    base._LOCK = threading.RLock()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_lock"):
        tracker._lock = threading.RLock()


def partition_ranks(n_ranks: int, n_workers: int) -> List[Tuple[int, ...]]:
    """Contiguous, balanced rank blocks — one per worker."""
    if n_workers <= 0 or n_workers > n_ranks:
        raise ValueError(
            f"need 1..{n_ranks} workers for {n_ranks} ranks, "
            f"got {n_workers}"
        )
    base, rem = divmod(n_ranks, n_workers)
    blocks: List[Tuple[int, ...]] = []
    start = 0
    for w in range(n_workers):
        size = base + (1 if w < rem else 0)
        blocks.append(tuple(range(start, start + size)))
        start += size
    return blocks


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a parent-owned segment.

    Workers inherit the parent's resource-tracker process (both fork and
    spawn pass the tracker fd down), so the attach-side registration is
    an idempotent set-add there and the parent's ``unlink`` performs the
    single unregister — no per-worker bookkeeping needed.
    """
    return shared_memory.SharedMemory(name=name)


class SegmentInUseError(RuntimeError):
    """A shared-memory segment was closed while an array over it lived.

    Every array over a segment pins it (:func:`_view`), so closing one
    under a live array fails instead of unmapping memory the array still
    reads.  Raised by a rank worker's teardown and by the session's
    ``close()``, which still unlinks every segment first.
    """


def _view(seg: shared_memory.SharedMemory, shape, dtype) -> np.ndarray:
    """An array over ``seg`` that holds an export of its buffer: while
    it (or any view of it) lives, ``seg.close()`` raises
    ``BufferError``."""
    count = int(np.prod(shape, dtype=np.int64))
    return np.frombuffer(seg.buf, dtype=dtype, count=count).reshape(shape)


def _release(
    segments: List[shared_memory.SharedMemory], unlink: bool = False
) -> None:
    """Close every segment (and, with ``unlink``, remove its name).

    Raises :class:`SegmentInUseError` naming the segments an array
    still pins; those stay mapped until the array goes, and are still
    unlinked.
    """
    pinned: List[str] = []
    for seg in segments:
        try:
            seg.close()
        except BufferError:
            pinned.append(seg.name)
        if unlink:
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
    if pinned:
        raise SegmentInUseError(
            f"{len(pinned)} shared-memory segment(s) closed with arrays "
            f"still over them ({', '.join(pinned)}): every view must be "
            "dropped before its segment is closed"
        )


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(
    worker_index: int,
    hosted: Tuple[int, ...],
    plan: EnginePlan,
    shm_names: Dict[Tuple[str, int], str],
    tile_shapes: Dict[int, Tuple[int, ...]],
    cdtype_name: str,
    channels: CommChannels,
    control: Any,
    results: Any,
    timeout: float,
) -> None:
    from repro.core.engine import NumericEngine  # after fork/spawn import
    from repro.data import DiffractionStore

    # Worker-lifetime recorder: the engine binds it at construction, so
    # every op span / fft counter lands here and ships home with each
    # step report (the scope ends with the process; no __exit__ needed).
    tel = _obs.Telemetry() if plan.telemetry else _obs.NULL_TELEMETRY
    _obs.activate(tel).__enter__()
    segments: List[shared_memory.SharedMemory] = []
    engine = comm = None
    worker_store = None
    try:
        cdtype = np.dtype(cdtype_name)
        n_ranks = plan.decomp.n_ranks
        acc_views: Dict[int, np.ndarray] = {}
        shared_arrays: Dict[Tuple[str, int], np.ndarray] = {}
        for rank in range(n_ranks):
            seg = _attach_segment(shm_names[("accbuf", rank)])
            segments.append(seg)
            acc_views[rank] = _view(seg, tile_shapes[rank], cdtype)
        for rank in hosted:
            seg = _attach_segment(shm_names[("volume", rank)])
            segments.append(seg)
            shared_arrays[("volume", rank)] = _view(
                seg, tile_shapes[rank], cdtype
            )
            shared_arrays[("accbuf", rank)] = acc_views[rank]

        comm = ProcessComm(
            n_ranks=n_ranks,
            hosted=hosted,
            worker_index=worker_index,
            channels=channels,
            timeout=timeout,
        )
        bounds = plan.decomp.bounds
        comm.register_tile_buffers(
            acc_views,
            {
                t.rank: t.ext.slices_in(bounds)
                for t in plan.decomp.tiles
            },
        )
        # A caller-supplied store instance reaches a *forked* worker
        # with the parent's open file handle inherited (pickling never
        # ran), and concurrent reads on one shared descriptor race;
        # re-open a per-worker copy.  Paths are already safe — each
        # engine opens its own handle.
        source = plan.options.data_source
        if isinstance(source, DiffractionStore):
            reopened = source.worker_copy()
            if reopened is not source:
                worker_store = reopened
        engine = NumericEngine.from_plan(
            plan,
            comm=comm,
            ranks=hosted,
            shared_arrays=shared_arrays,
            data_source=worker_store,
        )
        results.put(("ready", worker_index, None))

        session_pid = os.getppid()
        while True:
            try:
                cmd = control.get(timeout=1.0)
            except queue_mod.Empty:
                # A session process killed outright sends no "stop";
                # outliving it would strand this worker for good.
                if os.getppid() != session_pid:
                    break
                continue
            if cmd == "stop":
                break
            engine.execute(plan.schedule)
            report = {
                "costs": engine.iteration_costs(),
                "messages": comm.sent_messages,
                "message_bytes": int(comm.sent_bytes),
                "peaks": {
                    r: engine.memory.peak_bytes(r) for r in hosted
                },
                "probe": engine.current_probe(),
            }
            if tel.enabled:
                # Piggyback this step's spans/counters on the report.
                report["obs"] = tel.drain()
            results.put(("iter", worker_index, report))
    except BaseException:
        try:
            results.put(("error", worker_index, traceback.format_exc()))
        except Exception:  # pragma: no cover - queue already broken
            pass
    finally:
        if engine is not None:
            engine.close()  # release this worker's store handle
        if worker_store is not None:
            worker_store.close()  # the re-opened per-worker copy
        # Every array over a segment pins it: drop the engine's tiles,
        # the comm's registered buffers and this frame's views first.
        engine = comm = None
        acc_views = shared_arrays = {}
        _release(segments)


# ----------------------------------------------------------------------
# Parent-side session
# ----------------------------------------------------------------------
class _ProcessSession(ExecutionSession):
    """Worker choreography + shared-memory state access (parent side)."""

    def __init__(
        self,
        plan: EnginePlan,
        workers: Optional[int],
        timeout: float,
        start_method: Optional[str] = None,
    ) -> None:
        decomp = plan.decomp
        self._plan = plan
        # Parent-side recorder: receives each worker's drained spans
        # plus the parent's own dispatch/collect accounting.
        self._obs = _obs.current()
        self._n_ranks = decomp.n_ranks
        self._timeout = float(timeout)
        self._refine_probe = plan.refine_probe
        n_workers = workers if workers is not None else (os.cpu_count() or 1)
        n_workers = max(1, min(int(n_workers), self._n_ranks))
        self._blocks = partition_ranks(self._n_ranks, n_workers)
        self._n_workers = n_workers
        self._closed = False
        self._procs: List[Any] = []
        self._segments: List[shared_memory.SharedMemory] = []

        precision = resolve_precision(plan.options.dtype)
        cdtype = precision.complex_dtype
        self._tile_shapes: Dict[int, Tuple[int, ...]] = {
            t.rank: (
                plan.dataset.n_slices, t.ext.height, t.ext.width
            )
            for t in decomp.tiles
        }

        if start_method is None:
            start_method = (
                "fork"
                if "fork" in mp.get_all_start_methods()
                else "spawn"
            )
        ctx = mp.get_context(start_method)

        shm_names: Dict[Tuple[str, int], str] = {}
        self._vol_views: Optional[List[np.ndarray]] = []
        try:
            with _TRACKER_LOCK:
                for rank in range(self._n_ranks):
                    nbytes = max(
                        1,
                        int(np.prod(self._tile_shapes[rank], dtype=np.int64))
                        * cdtype.itemsize,
                    )
                    for kind in ("volume", "accbuf"):
                        seg = shared_memory.SharedMemory(
                            create=True, size=nbytes
                        )
                        self._segments.append(seg)
                        shm_names[(kind, rank)] = seg.name
                        if kind == "volume":
                            self._vol_views.append(
                                _view(seg, self._tile_shapes[rank], cdtype)
                            )

                self._channels = CommChannels(
                    inboxes=[ctx.Queue() for _ in range(self._n_ranks)],
                    gather=ctx.Queue(),
                    bcast=[ctx.Queue() for _ in range(n_workers)],
                    barrier=ctx.Barrier(n_workers),
                    n_workers=n_workers,
                )
                self._controls = [ctx.Queue() for _ in range(n_workers)]
                self._results = ctx.Queue()

                for w, hosted in enumerate(self._blocks):
                    self._procs.append(start_child(
                        ctx,
                        _worker_main,
                        (
                            w,
                            hosted,
                            plan,
                            shm_names,
                            self._tile_shapes,
                            cdtype.name,
                            self._channels,
                            self._controls[w],
                            self._results,
                            self._timeout,
                        ),
                        name=f"repro-rank-worker-{w}",
                        daemon=True,
                    ))

            self._messages = 0
            self._message_bytes = 0
            self._peaks: Dict[int, int] = {
                r: 0 for r in range(self._n_ranks)
            }
            self._probe: Optional[np.ndarray] = None
            self._collect("ready")
            logger.info(
                "process session up: %d worker(s) over %d rank(s), "
                "start method %s",
                n_workers, self._n_ranks, start_method,
            )
        except BaseException:
            self._shutdown()
            raise

    # ------------------------------------------------------------------
    def _collect(self, expected_kind: str) -> List[Dict[str, Any]]:
        """Gather one ``expected_kind`` report from every worker,
        surfacing worker tracebacks and silent deaths."""
        reports: Dict[int, Any] = {}
        while len(reports) < self._n_workers:
            try:
                kind, w, payload = self._results.get(timeout=1.0)
            except queue_mod.Empty:
                dead = [
                    p.name
                    for p in self._procs
                    if p.exitcode is not None and p.exitcode != 0
                ]
                if dead:
                    self._shutdown()
                    raise RuntimeError(
                        f"worker process(es) died without reporting: "
                        f"{', '.join(dead)}"
                    )
                continue
            if kind == "error":
                self._shutdown()
                raise RuntimeError(
                    f"rank worker {w} failed:\n{payload}"
                )
            if kind != expected_kind:  # pragma: no cover - protocol bug
                raise RuntimeError(
                    f"unexpected worker report {kind!r} "
                    f"(wanted {expected_kind!r})"
                )
            reports[w] = payload
        return [reports[w] for w in range(self._n_workers)]

    def step(self) -> float:
        if self._closed:
            raise RuntimeError("session is closed")
        tel = self._obs
        t0 = time.perf_counter() if tel.enabled else 0.0
        for control in self._controls:
            control.put("step")
        reports = self._collect("iter")
        if tel.enabled:
            # The parent's whole wait for the worker fleet — dispatch
            # to last report.  The gap between this and the merged
            # per-rank engine spans *is* the process executor's
            # dispatch/collect overhead.
            tel.add({
                "runtime.steps": 1,
                "runtime.collect.seconds": time.perf_counter() - t0,
            })
        costs: Dict[int, float] = {}
        # Worker counters are cumulative and collectives are booked by
        # worker 0 alone, so the run totals are plain sums.
        self._messages = sum(r["messages"] for r in reports)
        self._message_bytes = sum(r["message_bytes"] for r in reports)
        for report in reports:
            costs.update(report["costs"])
            self._peaks.update(report["peaks"])
            if report["probe"] is not None:
                self._probe = report["probe"]
            obs_payload = report.get("obs")
            if obs_payload is not None and tel.enabled:
                tel.ingest(obs_payload)
        # Rank-ordered summation — float-identical to the serial
        # engine's iteration_cost().
        return sum(costs[r] for r in range(self._n_ranks))

    # ------------------------------------------------------------------
    def volumes(self) -> List[np.ndarray]:
        if self._closed or self._vol_views is None:
            raise RuntimeError("session is closed")
        return list(self._vol_views)

    def probe(self) -> Optional[np.ndarray]:
        if not self._refine_probe or self._probe is None:
            return None
        return self._probe.copy()

    @property
    def messages(self) -> int:
        return self._messages

    @property
    def message_bytes(self) -> int:
        return self._message_bytes

    @property
    def per_rank_peaks(self) -> List[int]:
        return [self._peaks[r] for r in range(self._n_ranks)]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and release the shared memory; raises
        ``RuntimeError`` naming every worker that exited non-zero (its
        teardown failed, e.g. with :class:`SegmentInUseError`)."""
        failed = self._shutdown()
        if failed:
            raise RuntimeError(
                "rank worker(s) exited non-zero: " + ", ".join(failed)
            )

    def __exit__(self, exc_type, *exc_info) -> None:
        # An error already in flight wins over the workers' exit codes.
        if exc_type is None:
            self.close()
        else:
            self._shutdown()

    def _shutdown(self) -> List[str]:
        """Stop and join the workers, release the shared memory, and
        return ``"<worker> (exit status <code>)"`` for each worker that
        exited non-zero (nothing once already shut down)."""
        if self._closed:
            return []
        self._closed = True
        for control in getattr(self, "_controls", []):
            try:
                control.put("stop")
            except Exception:  # pragma: no cover - queue torn down
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5.0)
        failed = [
            f"{proc.name} (exit status {proc.exitcode})"
            for proc in self._procs
            if proc.exitcode != 0
        ]
        # Drop our views before releasing the mappings; a view still
        # held elsewhere makes _release raise SegmentInUseError.
        self._vol_views = None
        segments, self._segments = self._segments, []
        # Holding _TRACKER_LOCK *across* close/unlink is the point of
        # that lock (serialize every resource-tracker touch with fork
        # sites, see its definition), so the usual close-outside-the-
        # lock rule is inverted here on purpose.
        with _TRACKER_LOCK:
            _release(segments, unlink=True)  # repro-lint: allow[lock-blocking]
        return failed

    def __del__(self) -> None:  # pragma: no cover - safety net
        try:
            self.close()
        except Exception:
            pass


@register_executor("process")
class ProcessExecutor(Executor):
    """One worker process per rank block, state in shared memory.

    Parameters
    ----------
    workers:
        Worker-pool width (default: one per rank, capped at the CPU
        count).  Fewer workers than ranks co-host contiguous rank
        blocks in one process.
    timeout:
        Seconds any cross-worker wait (receive, barrier, collective)
        may block before the run is declared deadlocked.
    start_method:
        ``multiprocessing`` start method override (default: ``fork``
        where available, else ``spawn``).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        timeout: float = 120.0,
        start_method: Optional[str] = None,
    ) -> None:
        super().__init__(workers=workers)
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.timeout = float(timeout)
        self.start_method = start_method

    def launch(self, plan: EnginePlan) -> ExecutionSession:
        return _ProcessSession(
            plan,
            workers=self.workers,
            timeout=self.timeout,
            start_method=self.start_method,
        )
