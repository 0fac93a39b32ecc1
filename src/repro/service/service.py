"""The long-lived reconstruction service.

:class:`ReconstructionService` turns ``repro.reconstruct()`` — a
blocking library call — into an asynchronous job system:

* **submit** a :class:`~repro.api.config.ReconstructionConfig` + a
  data-source (a dataset archive path or an in-memory dataset) and get
  a :class:`JobHandle` back immediately;
* a bounded pool of supervisor threads drains a priority + FIFO-fairness
  :class:`~repro.service.queue.JobQueue`; each job leg runs in its own
  forked process through the ordinary ``repro.reconstruct`` entry point,
  so it resolves solvers, backends, executors and stores through the
  same registries as every other caller (and owns its backend instance
  and store handles — nothing is shared between concurrent jobs);
* **cancel/pause** stop a running job at the next iteration boundary,
  archiving an interrupt checkpoint first, so **resume** continues from
  exactly where the job stopped — for the exactly-resumable solvers
  (gd ``mode="synchronous"``, hve, serial) the final archive is
  fingerprint-identical to an uninterrupted run;
* a per-job :class:`~repro.service.progress.ProgressStream` serves live
  cost/rate/ETA to pollers and subscribers, mirrored to the job
  directory for cross-process clients.

All durable state lives in the job directory (see
:mod:`repro.service.jobs`), so a service restarted over the same root
recovers queued jobs and auto-requeues jobs a crashed predecessor left
``RUNNING`` — from their newest checkpoint, not from scratch.

Concurrency model: one forked process per leg, supervised by a thread.
Two jobs on two threads of one process trade the GIL through every
small kernel call; two leg processes do not, the way the paper's APPP
gives every GPU its own process.  A supervisor thread dequeues a job,
settles a cancel that arrived while it was queued, writes ``RUNNING``,
loads the dataset and forks the leg (:func:`~repro.runtime.process.
start_child`, the fork site the ``process`` executor uses too, so the
leg may fork rank workers of its own).  The leg pins the config, runs
``reconstruct`` with the checkpoint policy and a controller that polls
``control.json``, and itself writes ``result.npz`` (or, when stopped,
its interrupt checkpoint as the job's seed).  Back over one one-way pipe it
sends only its progress updates
(:class:`~repro.service.progress.ProgressUpdate`) and a final
``(state, error, telemetry summary)``; the supervisor publishes
the updates on the job's in-memory stream and settles the job.  A leg
that dies without a final message settles ``FAILED`` with its exit
status, and a leg whose pipe has lost its reader (the service died)
stops at its next iteration boundary, leaving the job ``RUNNING`` for
the next service to recover.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import replace
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

try:  # POSIX only; on other platforms the root lock degrades to advisory.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

from repro.api.config import ReconstructionConfig
from repro.api.events import CheckpointPolicy
from repro.api.reconstruct import reconstruct
from repro.backend.base import default_dtype_name, resolve_backend
from repro.core.observers import IterationEvent
from repro.io.storage import ResultArchive, load_result, save_result
from repro.obs import telemetry as _obs
from repro.runtime import process as _process
from repro.service import jobs as jobstore
from repro.service.jobs import JobError, JobRecord, JobState
from repro.service.progress import ProgressStream, ProgressUpdate
from repro.service.queue import JobQueue
from repro.utils.atomicio import atomic_write_json

__all__ = ["ReconstructionService", "JobHandle"]

logger = logging.getLogger(__name__)

#: What a leg sends last: ``(state, error, telemetry summary)``.
_Final = Tuple[str, Optional[str], Optional[Dict[str, Any]]]
#: Seconds ``close(timeout)`` gives terminated legs before killing them.
_LEG_GRACE_S = 5.0
#: Supervisor wait timeout: how soon shutdown or a dead leg is noticed.
_POLL_S = 0.1


# ----------------------------------------------------------------------
# Leg process side
# ----------------------------------------------------------------------
class _LegInterrupted(Exception):
    """Raised by the controller observer at an iteration boundary after
    archiving the interrupt checkpoint; unwinds the solver's run loop
    (which closes its session on the way out)."""

    def __init__(self, action: str, checkpoint: Path) -> None:
        super().__init__(action)
        self.action = action
        self.checkpoint = checkpoint


class _ServiceGone(Exception):
    """The leg's pipe has no reader left: the service that forked the
    leg is dead, so nobody will settle what the leg finishes."""


class _LegController:
    """Observer that stops a leg when a cancel/pause request lands.

    Requests arrive as ``control.json`` in the job directory (written by
    ``service.cancel/pause`` and by the ``jobs`` CLI alike), read at
    every iteration boundary; when one fires — immediately, or once
    ``at_iteration`` run iterations are banked (events count across
    legs) — the controller archives the current state and raises
    :class:`_LegInterrupted`.
    """

    def __init__(
        self,
        root: Path,
        record: JobRecord,
        base_config: ReconstructionConfig,
    ) -> None:
        self.root = root
        self.record = record
        self.base_config = base_config

    def __call__(self, event: IterationEvent) -> None:
        request = jobstore.read_control(self.root, self.record.job_id)
        if request is None:
            return
        at = request.get("at_iteration")
        if at is not None and event.iteration + 1 < at:
            return
        if event.is_last:
            # The run is finishing this very iteration; completing wins.
            return
        directory = jobstore.checkpoints_dir(self.root, self.record.job_id)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"interrupt_iter{event.iteration + 1:04d}.npz"
        save_result(path, event.snapshot(), config=self.base_config)
        raise _LegInterrupted(request.get("action", "cancel"), path)


class _LegProgress(ProgressStream):
    """The leg's progress observer: each update refreshes the job's
    ``progress.json`` and then goes down the pipe to the supervisor,
    which publishes it on the job's in-memory stream."""

    def __init__(self, conn: Any, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._conn = conn

    def publish(self, update: ProgressUpdate) -> None:
        super().publish(update)
        try:
            self._conn.send(update)
        except BrokenPipeError:
            raise _ServiceGone() from None


def _leg_main(
    root: Path,
    record: JobRecord,
    dataset: Any,
    checkpoint_every: Optional[int],
    conn: Any,
    inherited: List[Any],
) -> None:
    """Body of a leg process: run the leg, send its final message.

    ``inherited`` are the service's handles the fork copied in — the
    read ends of every leg pipe (this one's included) and the root's
    lock file.  Closing them leaves the service the only reader of each
    pipe, so a dead service breaks them all.  Ctrl-C belongs to the
    service process; SIGTERM (``close`` giving up on the leg) unwinds
    the leg so its session and stores close on the way out.
    """
    for handle in inherited:
        handle.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        conn.send(_run_leg(root, record, dataset, checkpoint_every, conn))
    except (_ServiceGone, BrokenPipeError):
        logger.warning(
            "job %s: service gone; leg stopped, job left RUNNING for "
            "the next service to recover", record.job_id,
        )
    finally:
        conn.close()


def _exit_on_sigterm(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)


def _run_leg(
    root: Path,
    record: JobRecord,
    dataset: Any,
    checkpoint_every: Optional[int],
    conn: Any,
) -> _Final:
    """Run one leg of ``record`` in this (leg) process and write what it
    leaves behind; returns the final message for the supervisor."""
    job_id = record.job_id
    directory = jobstore.job_dir(root, job_id)
    tel: Optional[_obs.Telemetry] = None
    error = None
    try:
        base_config = record.reconstruction_config()
        # Pin ambient (None) backend/dtype to the concrete names this leg
        # actually runs under, durably.  Checkpoints and the result
        # archive then carry the *resolved* compute, so a resume after
        # the process default changed trips the fingerprint check
        # (ResumeMismatchError) instead of silently continuing under
        # different numerics — and resume legs of this job keep running
        # on what the first leg ran on.
        backend_name = (
            base_config.backend
            if base_config.backend is not None
            else resolve_backend(None).name
        )
        dtype_name = (
            base_config.dtype
            if base_config.dtype is not None
            else default_dtype_name()
        )
        if (base_config.backend, base_config.dtype) != (
            backend_name, dtype_name
        ):
            base_config = replace(
                base_config, backend=backend_name, dtype=dtype_name
            )
            record.config = base_config.to_dict()
            jobstore.save_record(root, record)
        done = record.iterations_done
        remaining = record.iterations_total - done
        logger.info(
            "job %s: leg starting on %s/%s (iterations %d..%d of %d)",
            job_id, backend_name, dtype_name,
            done + 1, record.iterations_total, record.iterations_total,
        )

        # One recorder per leg, activated for the whole reconstruct
        # call, so engine/store/runtime spans — including per-rank spans
        # shipped back from rank workers — land on this job's timeline.
        if _obs.resolve_telemetry(base_config.telemetry):
            tel = _obs.Telemetry()
            # The queue-side half of wait-vs-run: how long the job sat
            # queued before this leg picked it up.
            tel.add({
                "queue.wait.seconds": max(
                    record.started_at - record.submitted_at, 0.0
                ),
            })

        leg_config = base_config.with_solver_params(iterations=remaining)
        if record.seed is not None:
            leg_config = leg_config.with_run_params(
                resume=str(directory / record.seed)
            )
        observers: List[Any] = [
            _LegProgress(
                conn,
                job_id,
                mirror_path=directory / "progress.json",
                backend=backend_name,
                dtype=dtype_name,
            )
        ]
        if checkpoint_every is not None:
            observers.append(
                CheckpointPolicy(
                    jobstore.checkpoints_dir(root, job_id),
                    every=checkpoint_every,
                    config=base_config,
                    keep_last=2,
                )
            )
        observers.append(_LegController(root, record, base_config))
        # The resumed seed's ledger is folded in by reconstruct, so this
        # is the whole job's result.  Spans are per-leg wall-clock — only
        # the final leg's telemetry is attached (earlier legs' live on in
        # the telemetry.json written at each settle).
        if tel is not None:
            with _obs.activate(tel):
                final = reconstruct(dataset, leg_config, observers=observers)
        else:
            final = reconstruct(dataset, leg_config, observers=observers)
        save_result(directory / "result.npz", final, config=base_config)
        jobstore.clear_control(root, job_id)
        state = JobState.DONE
    except _LegInterrupted as stop:
        logger.info(
            "job %s: leg interrupted (%s) at checkpoint %s",
            job_id, stop.action, stop.checkpoint.name,
        )
        jobstore.consolidate_from_archive(root, record, stop.checkpoint)
        jobstore.save_record(root, record)
        jobstore.clear_control(root, job_id)
        state = (
            JobState.PAUSED if stop.action == "pause"
            else JobState.CANCELLED
        )
    except _ServiceGone:
        raise
    except Exception:
        state = JobState.FAILED
        error = traceback.format_exc(limit=8)
    return state, error, tel.summary() if tel is not None else None


def _exit_reason(exitcode: Optional[int]) -> str:
    if exitcode is not None and exitcode < 0:
        return f"killed by signal {signal.Signals(-exitcode).name}"
    return f"exit code {exitcode}"


class JobHandle:
    """Client-side view of one submitted job (thin: id + service ref)."""

    def __init__(self, service: "ReconstructionService", job_id: str) -> None:
        self.service = service
        self.job_id = job_id

    @property
    def state(self) -> str:
        return self.service.status(self.job_id)

    def record(self) -> JobRecord:
        return self.service.record(self.job_id)

    def progress(self) -> Optional[ProgressStream]:
        return self.service.progress(self.job_id)

    def cancel(self, at_iteration: Optional[int] = None) -> None:
        self.service.cancel(self.job_id, at_iteration=at_iteration)

    def pause(self, at_iteration: Optional[int] = None) -> None:
        self.service.pause(self.job_id, at_iteration=at_iteration)

    def resume(self) -> None:
        self.service.resume(self.job_id)

    def wait(self, timeout: Optional[float] = None) -> str:
        return self.service.wait(self.job_id, timeout=timeout)

    def result(self) -> ResultArchive:
        return self.service.result(self.job_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JobHandle({self.job_id!r}, state={self.state!r})"


class ReconstructionService:
    """Async reconstruction jobs over a bounded pool of leg processes
    (see module docstring).

    Parameters
    ----------
    root:
        The job directory root; created if missing.  Everything durable
        lives here, and a later service over the same root recovers it.
    workers:
        How many jobs run at once: one supervisor thread each, and each
        running job's leg in its own forked process.
    checkpoint_every:
        Periodic checkpoint cadence in iterations (``None`` = interrupt
        checkpoints only).  Periodic checkpoints are what crash
        recovery resumes from.
    progress_cap:
        How many *settled* jobs keep their in-memory
        :class:`ProgressStream` (oldest evicted first).  Bounds a
        long-lived service's memory; ``progress.json`` in the job
        directory remains the durable record for evicted jobs.

    The service takes an exclusive ``flock`` on ``<root>/serve.lock``
    for its lifetime: exactly one service may drive a root at a time
    (a second one would re-queue — and double-run — the first one's
    live RUNNING jobs at its recovery scan).  Construction raises
    :class:`JobError` while another service holds the root.
    """

    def __init__(
        self,
        root: Union[str, Path],
        workers: int = 2,
        checkpoint_every: Optional[int] = None,
        progress_cap: int = 64,
    ) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        if progress_cap < 0:
            raise ValueError("progress_cap must be >= 0")
        self.root = Path(root)
        self.workers = workers
        self.checkpoint_every = checkpoint_every
        self.progress_cap = progress_cap
        (self.root / "jobs").mkdir(parents=True, exist_ok=True)
        self._lock_file = None
        self._acquire_root_lock()

        self._queue = JobQueue()
        self._cond = threading.Condition()
        self._progress: Dict[str, ProgressStream] = {}
        self._settled_order: Deque[str] = deque()
        self._running: set = set()
        #: Live leg processes by job id (under ``_cond``), and the read
        #: ends of their pipes (under ``_process._TRACKER_LOCK``, the
        #: lock every fork holds, so each leg knows every read end it
        #: inherited and closes it).
        self._legs: Dict[str, Any] = {}
        self._leg_readers: set = set()
        #: Set once ``close(timeout)`` gave up on running legs.
        self._abandon = False
        self._stats = {
            "submitted": 0, "recovered": 0, "done": 0,
            "failed": 0, "cancelled": 0, "paused": 0,
        }
        self._closed = False
        self._recover()
        self._threads = [
            threading.Thread(
                target=self._supervise, name=f"repro-service-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()
        logger.info(
            "service up: root=%s workers=%d checkpoint_every=%s",
            self.root, workers, checkpoint_every,
        )

    # ------------------------------------------------------------------
    # Lifecycle API
    # ------------------------------------------------------------------
    def submit(
        self,
        dataset: Union[str, Path, "object"],
        config: Union[ReconstructionConfig, Dict],
        priority: int = 0,
        job_id: Optional[str] = None,
    ) -> JobHandle:
        """Queue a reconstruction; returns immediately with a handle."""
        if self._closed:
            raise JobError("service is closed")
        record = jobstore.create_job(
            self.root, dataset, config, priority=priority, job_id=job_id
        )
        with self._cond:
            self._stats["submitted"] += 1
        self._queue.put(record.job_id, priority=record.priority)
        logger.info(
            "job %s: submitted (solver=%s, priority=%d)",
            record.job_id, record.config.get("solver"), record.priority,
        )
        return JobHandle(self, record.job_id)

    def status(self, job_id: str) -> str:
        """The job's current state string."""
        return self.record(job_id).state

    def record(self, job_id: str) -> JobRecord:
        return jobstore.load_record(self.root, job_id)

    def list_jobs(self) -> List[JobRecord]:
        """Every job under the root, submission-ordered."""
        return [
            jobstore.load_record(self.root, jid)
            for jid in jobstore.list_job_ids(self.root)
        ]

    def progress(self, job_id: str) -> Optional[ProgressStream]:
        """The job's live progress stream (None before it first runs)."""
        with self._cond:
            return self._progress.get(job_id)

    def cancel(self, job_id: str, at_iteration: Optional[int] = None) -> None:
        """Stop the job at the next iteration boundary (or once
        ``at_iteration`` global iterations are banked), archiving a
        resumable checkpoint.  A job still in the queue is cancelled
        without running."""
        self._request(job_id, "cancel", at_iteration)

    def pause(self, job_id: str, at_iteration: Optional[int] = None) -> None:
        """Like cancel, but lands in ``PAUSED`` — the state that says
        "to be continued" rather than "abandoned"."""
        self._request(job_id, "pause", at_iteration)

    def _request(
        self, job_id: str, action: str, at_iteration: Optional[int]
    ) -> None:
        record = self.record(job_id)  # existence check
        if record.state in (JobState.DONE, JobState.FAILED):
            raise JobError(
                f"job {job_id!r} is already {record.state}; nothing to "
                f"{action}"
            )
        jobstore.request_control(self.root, job_id, action, at_iteration)
        logger.info(
            "job %s: %s requested (at_iteration=%s)",
            job_id, action, at_iteration,
        )

    def resume(self, job_id: str) -> JobHandle:
        """Requeue a ``PAUSED``/``CANCELLED``/``FAILED`` job from its
        consolidated checkpoint."""
        if self._closed:
            raise JobError("service is closed")
        record = jobstore.prepare_resume(self.root, job_id)
        self._queue.put(record.job_id, priority=record.priority)
        logger.info(
            "job %s: resumed from iteration %d (leg %d)",
            job_id, record.iterations_done, record.resumes,
        )
        return JobHandle(self, job_id)

    def wait(self, job_id: str, timeout: Optional[float] = None) -> str:
        """Block until the job settles (DONE/FAILED/CANCELLED/PAUSED);
        returns the settled state (or the current one on timeout)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                # The record read must stay under the condition: supervisors
                # notify under it, so reading outside would let a settle
                # fire between the state check and the wait (a missed
                # wake-up that hangs a timeout-less waiter forever).
                state = jobstore.load_record(  # repro-lint: allow[lock-blocking]
                    self.root, job_id
                ).state
                if state in JobState.SETTLED:
                    return state
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return state
                self._cond.wait(timeout=remaining)

    def result(self, job_id: str) -> ResultArchive:
        """The finished job's merged archive (raises unless DONE)."""
        record = self.record(job_id)
        if record.state != JobState.DONE:
            detail = f": {record.error}" if record.error else ""
            raise JobError(
                f"job {job_id!r} is {record.state}, not DONE{detail}"
            )
        return load_result(jobstore.job_dir(self.root, job_id) / "result.npz")

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until no job is queued or running; True on success.

        The check reads the three stages in the order a job moves
        through them (queued → in-flight → running), so a job can
        never slip between two reads unobserved."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while len(self._queue) or self._queue.in_flight or self._running:
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(timeout=remaining)
            return True

    def close(self, timeout: Optional[float] = None) -> None:
        """Stop accepting jobs, let running ones finish, join the
        supervisors.

        With ``timeout``, legs still running when it runs out are
        terminated and reaped; their jobs stay ``RUNNING`` on disk (and
        queued ones ``QUEUED``), so the next service over the root
        recovers them from their newest checkpoint."""
        self._closed = True
        self._queue.close()
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            thread.join(
                timeout=None if deadline is None
                else max(deadline - time.monotonic(), 0.0)
            )
        if any(thread.is_alive() for thread in self._threads):
            # SIGTERM unwinds a leg (its session and stores close on the
            # way out); one still running after the grace is killed.
            self._signal_legs("terminate")
            for thread in self._threads:
                thread.join(timeout=_LEG_GRACE_S)
            self._signal_legs("kill")
            for thread in self._threads:
                thread.join()
        self._release_root_lock()

    def _signal_legs(self, method: str) -> None:
        with self._cond:
            self._abandon = True
            legs = list(self._legs.values())
        for proc in legs:
            try:
                getattr(proc, method)()
            except ValueError:  # reaped and closed meanwhile
                pass

    def stats(self) -> Dict[str, int]:
        """Lifetime counters (submitted/recovered/done/failed/...)."""
        with self._cond:
            return dict(self._stats)

    def __enter__(self) -> "ReconstructionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Root ownership
    # ------------------------------------------------------------------
    def _acquire_root_lock(self) -> None:
        """Take the exclusive ``serve.lock`` on the root (see class
        docstring); :class:`JobError` if another live service holds it.

        An OS-level ``flock`` is exactly the right primitive here: it
        is released automatically when the holder dies, so a crashed
        service never wedges its root, and the successor that takes the
        lock is by construction the only process whose recovery scan
        may re-queue RUNNING jobs."""
        # The lock file IS the synchronization primitive (flock target),
        # not durable data — tmp+rename would defeat it.
        self._lock_file = open(  # repro-lint: allow[atomic-write]
            self.root / "serve.lock", "a+"
        )
        if fcntl is None:  # pragma: no cover - non-POSIX
            return
        try:
            fcntl.flock(self._lock_file.fileno(),
                        fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            self._lock_file.seek(0)
            holder = self._lock_file.read().strip() or "unknown pid"
            self._lock_file.close()
            self._lock_file = None
            raise JobError(
                f"another service ({holder}) is already serving "
                f"{self.root}; one service per job root — point this "
                "one at a different --root or stop the other first"
            ) from None
        self._lock_file.truncate(0)
        self._lock_file.seek(0)
        self._lock_file.write(f"pid {os.getpid()}\n")
        self._lock_file.flush()

    def _release_root_lock(self) -> None:
        if self._lock_file is None:
            return
        if fcntl is not None:
            fcntl.flock(self._lock_file.fileno(), fcntl.LOCK_UN)
        self._lock_file.close()
        self._lock_file = None

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Scan the root: requeue QUEUED jobs (submitted while no server
        ran) and jobs a crashed predecessor left RUNNING (consolidating
        their newest checkpoint so they continue, not restart)."""
        for job_id in jobstore.list_job_ids(self.root):
            record = jobstore.load_record(self.root, job_id)
            if record.state == JobState.QUEUED:
                self._queue.put(job_id, priority=record.priority)
                with self._cond:
                    self._stats["recovered"] += 1
                logger.info("job %s: recovered from queue", job_id)
            elif record.state == JobState.RUNNING:
                directory = jobstore.job_dir(self.root, job_id)
                if (directory / "result.npz").exists():
                    # The leg archived its result; its service died
                    # before settling it.
                    self._settle(record, JobState.DONE)
                    logger.info("job %s: recovered finished leg", job_id)
                    continue
                stale = jobstore.latest_checkpoint(self.root, job_id)
                if stale is not None:
                    jobstore.consolidate_from_archive(
                        self.root, record, stale
                    )
                record.state = JobState.QUEUED
                record.resumes += 1
                jobstore.save_record(self.root, record)
                self._queue.put(job_id, priority=record.priority)
                with self._cond:
                    self._stats["recovered"] += 1
                logger.info(
                    "job %s: recovered RUNNING job from crashed "
                    "predecessor (checkpoint=%s)",
                    job_id, stale.name if stale is not None else None,
                )

    # ------------------------------------------------------------------
    # Supervisor side
    # ------------------------------------------------------------------
    def _supervise(self) -> None:
        while True:
            job_id = self._queue.get(timeout=_POLL_S)
            if job_id is None:
                if self._closed and not len(self._queue):
                    return
                continue
            # The queue counts the job in-flight until it lands in
            # _running, so drain() never sees it in neither place.
            with self._cond:
                self._running.add(job_id)
                abandon = self._abandon
            self._queue.task_done()
            try:
                # After close() gave up, a dequeued job stays QUEUED on
                # disk for the next service.
                if not abandon:
                    self._run_job(job_id)
            except Exception:
                # _run_job settles every failure itself; this backstop
                # only fires on bugs in the settling path — and a
                # supervisor must never die, so settle FAILED
                # best-effort and keep serving.
                try:
                    record = jobstore.load_record(self.root, job_id)
                    record.error = traceback.format_exc(limit=8)
                    self._settle(record, JobState.FAILED)
                except Exception:  # pragma: no cover - root gone
                    pass
            finally:
                with self._cond:
                    self._running.discard(job_id)
                    self._cond.notify_all()

    def _settle(
        self,
        record: JobRecord,
        state: str,
        summary: Optional[Dict[str, Any]] = None,
    ) -> None:
        record.state = state
        # Record-keeping only (humans + the wait-vs-run telemetry
        # split); queue ordering stays monotonic/wall-clock-free — see
        # repro.service.queue.
        record.finished_at = time.time()  # repro-lint: allow[wall-clock]
        jobstore.save_record(self.root, record)
        # Before waiters are notified, so a client that saw the settled
        # state always finds telemetry.json in the job directory.
        self._write_job_telemetry(record, summary)
        if state == JobState.FAILED:
            logger.warning(
                "job %s: settled FAILED: %s",
                record.job_id,
                (record.error or "").strip().splitlines()[-1]
                if record.error else "unknown error",
            )
        else:
            logger.info("job %s: settled %s", record.job_id, state)
        with self._cond:
            # The lifetime counters are named after the settled states.
            self._stats[state.lower()] += 1
            # Bound in-memory progress: remember the settle order and
            # evict the oldest settled jobs' streams past the cap (the
            # mirrored progress.json stays as the durable record).
            if record.job_id in self._progress:
                if record.job_id not in self._settled_order:
                    self._settled_order.append(record.job_id)
                while len(self._settled_order) > self.progress_cap:
                    evicted = self._settled_order.popleft()
                    self._progress.pop(evicted, None)
            self._cond.notify_all()

    def _run_job(self, job_id: str) -> None:
        from repro.io.storage import load_dataset

        record = jobstore.load_record(self.root, job_id)
        if record.state != JobState.QUEUED:
            return  # raced with an external state change; nothing to run
        request = jobstore.read_control(self.root, job_id)
        if (
            request is not None
            and request.get("action") == "cancel"
            and request.get("at_iteration") is None
        ):
            # Cancelled while still queued: settle without running.
            jobstore.clear_control(self.root, job_id)
            self._settle(record, JobState.CANCELLED)
            return

        record.state = JobState.RUNNING
        # Record-keeping only; see the monotonic-only rule note on
        # finished_at in _settle.
        record.started_at = time.time()  # repro-lint: allow[wall-clock]
        record.error = None
        jobstore.save_record(self.root, record)
        try:
            # Loaded here, inherited by the fork: a job whose dataset is
            # gone fails without a leg.
            dataset = load_dataset(jobstore.dataset_path_of(self.root, record))
        except Exception:
            record.error = traceback.format_exc(limit=8)
            self._settle(record, JobState.FAILED)
            return

        proc, reader = self._fork_leg(record, dataset)
        del dataset  # the leg has its copy
        stream = ProgressStream(job_id)
        with self._cond:
            self._progress[job_id] = stream
            if job_id in self._settled_order:  # resumed job: re-live
                self._settled_order.remove(job_id)
        try:
            final = self._relay(proc, reader, stream)
        except BaseException:  # pragma: no cover - relay bug
            proc.terminate()
            raise
        finally:
            proc.join()
            with self._cond:
                self._legs.pop(job_id, None)
            stream.close()
            with _process._TRACKER_LOCK:
                # A fork on another supervisor thread reaps finished
                # children (multiprocessing's _cleanup) under this lock.
                # If it reaped this leg, join() returned before the exit
                # code was recorded; under the lock it is recorded.
                exitcode = proc.exitcode
                self._leg_readers.discard(reader)
                # Under the fork lock, like the pipe's creation: a leg
                # forked meanwhile must not inherit a stale read end.
                reader.close()  # repro-lint: allow[lock-blocking]
            proc.close()
        record = jobstore.load_record(self.root, job_id)  # the leg's writes
        if final is None:
            if self._abandon:
                logger.info(
                    "job %s: leg stopped by close(); left RUNNING for "
                    "recovery", job_id,
                )
                return
            record.error = (
                f"leg process {proc.name} exited without a result: "
                f"{_exit_reason(exitcode)}"
            )
            self._settle(record, JobState.FAILED)
            return
        state, record.error, summary = final
        self._settle(record, state, summary)

    def _fork_leg(self, record: JobRecord, dataset: Any) -> Tuple[Any, Any]:
        """Start ``record``'s leg process; returns it and the read end
        of its pipe."""
        ctx = mp.get_context("fork")
        with _process._TRACKER_LOCK:
            reader, writer = ctx.Pipe(duplex=False)
            inherited = [reader, *self._leg_readers]
            if self._lock_file is not None:
                inherited.append(self._lock_file)
            # Not daemonic: a leg may fork rank workers of its own.
            proc = _process.start_child(
                ctx,
                _leg_main,
                (self.root, record, dataset, self.checkpoint_every,
                 writer, inherited),
                name=f"repro-leg-{record.job_id}",
                daemon=False,
            )
            # Closed before any other fork, so only the leg can write.
            writer.close()  # repro-lint: allow[lock-blocking]
            self._leg_readers.add(reader)
        with self._cond:
            self._legs[record.job_id] = proc
            abandon = self._abandon
        if abandon:
            proc.terminate()
        return proc, reader

    def _relay(
        self, proc: Any, reader: Any, stream: ProgressStream
    ) -> Optional[_Final]:
        """Publish the leg's updates on ``stream`` until its final
        message, which is returned; ``None`` if the leg exited without
        one."""
        while True:
            # The timeout covers a sentinel that stays unready after the
            # leg died: its rank workers inherited the write end.
            mp_connection.wait(
                [reader, proc.sentinel], timeout=_POLL_S
            )
            # Checked before draining: once the leg has exited, every
            # message it sent is already in the pipe.
            exited = not proc.is_alive()
            try:
                while reader.poll():
                    message = reader.recv()
                    if not isinstance(message, ProgressUpdate):
                        return message
                    stream.publish(message)
            except (EOFError, OSError):
                return None
            if exited:
                return None

    def _write_job_telemetry(
        self, record: JobRecord, summary: Optional[Dict[str, Any]]
    ) -> None:
        """Drop ``telemetry.json`` in the settled job's directory: the
        wait-vs-run split read from the record's own timestamps (always
        available, even for jobs cancelled while queued) plus the leg's
        aggregated span/counter summary when the leg was traced.  Best-
        effort — an unwritable job dir must not unsettle a settled job.
        """
        directory = jobstore.job_dir(self.root, record.job_id)
        wait_s = None
        run_s = None
        if record.started_at is not None:
            wait_s = max(record.started_at - record.submitted_at, 0.0)
            if record.finished_at is not None:
                run_s = max(record.finished_at - record.started_at, 0.0)
        elif record.finished_at is not None:
            # Never ran: the whole lifetime was queue wait.
            wait_s = max(record.finished_at - record.submitted_at, 0.0)
        payload = {
            "schema": "repro-job-telemetry/1",
            "job_id": record.job_id,
            "state": record.state,
            "queue": {"wait_s": wait_s, "run_s": run_s},
            "summary": summary,
        }
        try:
            atomic_write_json(
                directory / "telemetry.json", payload,
                indent=2, sort_keys=True,
            )
        except OSError:
            logger.debug(
                "job %s: telemetry.json write failed",
                record.job_id, exc_info=True,
            )
