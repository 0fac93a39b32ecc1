"""The long-lived reconstruction service.

:class:`ReconstructionService` turns ``repro.reconstruct()`` — a
blocking library call — into an asynchronous job system:

* **submit** a :class:`~repro.api.config.ReconstructionConfig` + a
  data-source (a dataset archive path or an in-memory dataset) and get
  a :class:`JobHandle` back immediately;
* a bounded pool of worker threads drains a priority + FIFO-fairness
  :class:`~repro.service.queue.JobQueue`; each job runs through the
  ordinary ``repro.reconstruct`` entry point, so it resolves solvers,
  backends, executors and stores through the same registries as every
  other caller (and opens its *own* store handle — nothing is shared
  between concurrent jobs except the refcounted backend instance);
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

Concurrency model: worker *threads*, not processes.  Numpy/scipy FFTs
release the GIL, the ``process`` executor moves rank programs out of
process anyway, and threads let one refcounted backend instance (plan
caches!) serve every concurrent job — the lifecycle the backend
registry's ``acquire_backend``/``release_backend`` pair exists for.
"""

from __future__ import annotations

import logging
import os
import threading
import time
import traceback
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Union

try:  # POSIX only; on other platforms the root lock degrades to advisory.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

from repro.api.config import ReconstructionConfig
from repro.api.events import CheckpointPolicy
from repro.api.reconstruct import reconstruct
from repro.backend.base import (
    acquire_backend,
    default_dtype_name,
    release_backend,
    resolve_backend,
)
from repro.core.observers import IterationEvent
from repro.core.reconstructor import ReconstructionResult, fold_leg
from repro.io.storage import ResultArchive, load_result, save_result
from repro.obs import telemetry as _obs
from repro.service import jobs as jobstore
from repro.service.jobs import JobError, JobRecord, JobState
from repro.service.progress import ProgressStream
from repro.service.queue import JobQueue
from repro.utils.atomicio import atomic_write_json

__all__ = ["ReconstructionService", "JobHandle"]

logger = logging.getLogger(__name__)


class _LegInterrupted(Exception):
    """Raised by the controller observer at an iteration boundary after
    archiving the interrupt checkpoint; unwinds the solver's run loop
    (which closes its session on the way out)."""

    def __init__(self, action: str, checkpoint: Path) -> None:
        super().__init__(action)
        self.action = action
        self.checkpoint = checkpoint


class _LegController:
    """Observer that stops a leg when a cancel/pause request lands.

    Requests arrive two ways: in-process (``service.cancel/pause``sets a
    flag under the service lock) and cross-process (``control.json`` in
    the job directory, written by the ``jobs`` CLI).  Both are checked
    at every iteration boundary; when one fires — immediately, or once
    ``at_iteration`` global iterations are banked — the controller
    archives the current state and raises :class:`_LegInterrupted`.
    """

    def __init__(
        self,
        service: "ReconstructionService",
        record: JobRecord,
        base_config: ReconstructionConfig,
        offset: int,
    ) -> None:
        self.service = service
        self.record = record
        self.base_config = base_config
        self.offset = offset

    def __call__(self, event: IterationEvent) -> None:
        request = self.service._pending_request(self.record.job_id)
        if request is None:
            request = jobstore.read_control(
                self.service.root, self.record.job_id
            )
        if request is None:
            return
        done = self.offset + event.iteration + 1
        at = request.get("at_iteration")
        if at is not None and done < at:
            return
        if done >= self.record.iterations_total:
            # The run is finishing this very iteration; completing wins.
            return
        directory = jobstore.checkpoints_dir(
            self.service.root, self.record.job_id
        )
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"interrupt_iter{event.iteration + 1:04d}.npz"
        save_result(path, event.snapshot(), config=self.base_config)
        raise _LegInterrupted(request.get("action", "cancel"), path)


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
    """Async reconstruction jobs over a bounded worker pool (see module
    docstring).

    Parameters
    ----------
    root:
        The job directory root; created if missing.  Everything durable
        lives here, and a later service over the same root recovers it.
    workers:
        Worker-thread pool width (concurrent jobs).
    checkpoint_every:
        Periodic checkpoint cadence in iterations (``None`` = interrupt
        checkpoints only).  Periodic checkpoints are what crash
        recovery resumes from.
    age_after:
        Queue fairness knob (see :class:`~repro.service.queue.JobQueue`).
    poll_interval:
        Worker dequeue timeout — the latency bound on noticing
        shutdown; requests themselves are event-driven.
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
        age_after: int = 4,
        poll_interval: float = 0.1,
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
        self.poll_interval = poll_interval
        self.progress_cap = progress_cap
        (self.root / "jobs").mkdir(parents=True, exist_ok=True)
        self._lock_file = None
        self._acquire_root_lock()

        self._queue = JobQueue(age_after=age_after)
        self._cond = threading.Condition()
        self._requests: Dict[str, Dict] = {}
        self._progress: Dict[str, ProgressStream] = {}
        self._settled_order: Deque[str] = deque()
        self._running: set = set()
        self._stats = {
            "submitted": 0, "recovered": 0, "done": 0,
            "failed": 0, "cancelled": 0, "paused": 0,
        }
        self._closed = False
        self._recover()
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-service-{i}", daemon=True
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
        with self._cond:
            self._requests[job_id] = {
                "action": action, "at_iteration": at_iteration,
            }
        logger.info(
            "job %s: %s requested (at_iteration=%s)",
            job_id, action, at_iteration,
        )

    def resume(self, job_id: str) -> JobHandle:
        """Requeue a ``PAUSED``/``CANCELLED``/``FAILED`` job from its
        consolidated checkpoint."""
        record = jobstore.prepare_resume(self.root, job_id)
        with self._cond:
            self._requests.pop(job_id, None)
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
                # The record read must stay under the condition: workers
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
        """Stop accepting jobs, let running ones finish, join workers."""
        self._closed = True
        self._queue.close()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._release_root_lock()

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
    # Worker side
    # ------------------------------------------------------------------
    def _pending_request(self, job_id: str) -> Optional[Dict]:
        with self._cond:
            return self._requests.get(job_id)

    def _worker(self) -> None:
        while True:
            job_id = self._queue.get(timeout=self.poll_interval)
            if job_id is None:
                if self._closed and not len(self._queue):
                    return
                continue
            # The queue counts the job in-flight until it lands in
            # _running, so drain() never sees it in neither place.
            with self._cond:
                self._running.add(job_id)
            self._queue.task_done()
            try:
                self._run_job(job_id)
            except Exception:
                # _run_job settles every failure itself; this backstop
                # only fires on bugs in the settling path — and a worker
                # thread must never die, so settle FAILED best-effort
                # and keep serving.
                try:
                    record = jobstore.load_record(self.root, job_id)
                    record.error = traceback.format_exc(limit=8)
                    self._settle(record, JobState.FAILED, "failed")
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
        counter: str,
        tel: Optional["_obs.Telemetry"] = None,
    ) -> None:
        record.state = state
        # Record-keeping only (humans + the wait-vs-run telemetry
        # split); queue ordering stays monotonic/wall-clock-free — see
        # repro.service.queue.
        record.finished_at = time.time()  # repro-lint: allow[wall-clock]
        jobstore.save_record(self.root, record)
        # Before waiters are notified, so a client that saw the settled
        # state always finds telemetry.json in the job directory.
        self._write_job_telemetry(record, tel)
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
            self._requests.pop(record.job_id, None)
            self._stats[counter] += 1
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
        request = self._pending_request(job_id) or jobstore.read_control(
            self.root, job_id
        )
        if (
            request is not None
            and request.get("action") == "cancel"
            and request.get("at_iteration") is None
        ):
            # Cancelled while still queued: settle without running.
            jobstore.clear_control(self.root, job_id)
            self._settle(record, JobState.CANCELLED, "cancelled")
            return

        record.state = JobState.RUNNING
        # Record-keeping only; see the monotonic-only rule note on
        # finished_at in _settle.
        record.started_at = time.time()  # repro-lint: allow[wall-clock]
        record.error = None
        jobstore.save_record(self.root, record)

        # Everything past the RUNNING write sits inside this try: a job
        # whose config references an unknown backend (possible — jobs
        # are submitted cross-process against the raw registry names)
        # must settle FAILED, never escape and kill the worker thread
        # while the record stays RUNNING on disk.
        directory = jobstore.job_dir(self.root, job_id)
        stream: Optional[ProgressStream] = None
        tel: Optional[_obs.Telemetry] = None
        try:
            base_config = record.reconstruction_config()
            # Pin ambient (None) backend/dtype to the concrete names
            # this leg actually runs under, durably.  Checkpoints and
            # the result archive then carry the *resolved* compute, so
            # a resume after the process default changed trips the
            # fingerprint check (ResumeMismatchError) instead of
            # silently continuing under different numerics — and resume
            # legs of this job keep running on what the first leg ran on.
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
                base_config = base_config.with_compute(
                    backend=backend_name, dtype=dtype_name
                )
                record.config = base_config.to_dict()
                jobstore.save_record(self.root, record)
            offset = record.iterations_done
            remaining = record.iterations_total - offset
            logger.info(
                "job %s: leg starting on %s/%s (iterations %d..%d of %d)",
                job_id, backend_name, dtype_name,
                offset + 1, record.iterations_total,
                record.iterations_total,
            )

            # One recorder per leg, activated for the whole reconstruct
            # call, so engine/store/runtime spans — including per-rank
            # spans shipped back from worker processes — land on this
            # job's timeline and nobody else's (the recorder is
            # thread-local; concurrent jobs on other worker threads
            # each get their own).
            if _obs.resolve_telemetry(base_config.telemetry):
                tel = _obs.Telemetry()
                # The queue-side half of wait-vs-run: how long the job
                # sat queued before this leg picked it up.
                tel.add({
                    "queue.wait.seconds": max(
                        record.started_at - record.submitted_at, 0.0
                    ),
                })

            stream = ProgressStream(
                job_id,
                record.iterations_total,
                offset=offset,
                mirror_path=directory / "progress.json",
                backend=backend_name,
                dtype=dtype_name,
            )
            with self._cond:
                self._progress[job_id] = stream
                if job_id in self._settled_order:  # resumed job: re-live
                    self._settled_order.remove(job_id)

            # The backend instance is shared across concurrent jobs;
            # hold a lease for the leg so another job settling cannot
            # close it mid-transform (the refcount in
            # repro.backend.base).
            acquire_backend(backend_name)
            try:
                leg_config = base_config.with_solver_params(
                    iterations=remaining
                )
                if record.seed is not None:
                    leg_config = leg_config.with_run_params(
                        resume=str(directory / record.seed)
                    )
                if base_config.scan_source is not None and offset > 0:
                    # A resumed streamed leg fast-forwards the feeder's
                    # sweep clock so the frame journal the interrupted
                    # leg had accumulated is rebuilt deterministically.
                    leg_config = leg_config.with_run_params(
                        stream_offset=offset
                    )
                observers = [stream]
                if self.checkpoint_every is not None:
                    observers.append(
                        CheckpointPolicy(
                            jobstore.checkpoints_dir(self.root, job_id),
                            every=self.checkpoint_every,
                            config=base_config,
                            keep_last=2,
                        )
                    )
                observers.append(
                    _LegController(self, record, base_config, offset)
                )
                dataset = load_dataset(
                    jobstore.dataset_path_of(self.root, record)
                )
                if tel is not None:
                    with _obs.activate(tel):
                        leg = reconstruct(
                            dataset, leg_config, observers=observers
                        )
                else:
                    leg = reconstruct(dataset, leg_config, observers=observers)
            finally:
                release_backend(backend_name)
        except _LegInterrupted as stop:
            logger.info(
                "job %s: leg interrupted (%s) at checkpoint %s",
                job_id, stop.action, stop.checkpoint.name,
            )
            jobstore.consolidate_from_archive(
                self.root, record, stop.checkpoint
            )
            jobstore.clear_control(self.root, job_id)
            if stop.action == "pause":
                self._settle(record, JobState.PAUSED, "paused", tel=tel)
            else:
                self._settle(record, JobState.CANCELLED, "cancelled", tel=tel)
        except Exception:
            record.error = traceback.format_exc(limit=8)
            self._settle(record, JobState.FAILED, "failed", tel=tel)
        else:
            final = self._merged_result(record, leg)
            save_result(
                directory / "result.npz", final, config=base_config
            )
            record.carry_history = [float(c) for c in final.history]
            record.carry_messages = int(final.messages)
            record.carry_message_bytes = int(final.message_bytes)
            record.carry_peaks = [
                int(p) for p in final.peak_memory_per_rank
            ]
            jobstore.clear_control(self.root, job_id)
            self._settle(record, JobState.DONE, "done", tel=tel)
        finally:
            if stream is not None:
                stream.close()

    def _write_job_telemetry(
        self, record: JobRecord, tel: Optional["_obs.Telemetry"]
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
            "summary": tel.summary() if tel is not None else None,
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

    @staticmethod
    def _merged_result(
        record: JobRecord, leg: ReconstructionResult
    ) -> ReconstructionResult:
        """The whole-job result: current state from the final leg,
        history/traffic banked across legs (additive), memory peaks as
        the high-water mark across legs."""
        # Spans are per-leg wall-clock — only the final leg's telemetry
        # is attached (earlier legs' live on in their checkpoints'
        # telemetry.json, written at each settle).
        return fold_leg(
            leg,
            record.carry_history,
            record.carry_messages,
            record.carry_message_bytes,
            record.carry_peaks,
        )
