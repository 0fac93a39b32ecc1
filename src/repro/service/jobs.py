"""Filesystem-backed job records: the service's durable state.

One directory per job under ``<root>/jobs/<job_id>/``::

    job.json          the JobRecord (atomic tmp+rename writes)
    dataset.npz       the acquisition, when submitted in-memory
                      (path submissions reference the original file)
    checkpoints/      periodic + interrupt checkpoints of the active leg
    seed.npz          consolidated resume seed (volume/probe/config
                      and the ledger of every iteration before it)
    result.npz        the whole run's archive, once the job finished
    progress.json     latest ProgressUpdate mirror (cross-process poll)
    control.json      pending cancel/pause request (cross-process)

The root itself holds one extra file, ``serve.lock`` — the exclusive
``flock`` a live service owns for its lifetime (one service per root;
see :class:`~repro.service.service.ReconstructionService`).

Everything an observer of the job directory needs survives process
restarts: a ``serve`` process that crashes mid-run is recovered from
``job.json`` + the newest checkpoint by the next ``serve`` (the dead
process's lock is released by the OS, so the successor takes over
without manual cleanup); a ``submit`` with no server running is picked
up whenever one starts.

**Leg accounting.**  A job runs as one or more *legs* (initial run, then
one per resume).  Each leg resumes from ``seed.npz`` through
``repro.reconstruct``, which folds the seed's ledger (cost history,
traffic, memory peaks) into every checkpoint and into the result, so
every archive of a job describes the whole run so far — the archive is
the one ledger.  :func:`consolidate_from_archive` installs a checkpoint
as the next leg's seed and records how many iterations it covers in
``iterations_done``; a job is finished exactly when ``result.npz``
exists.  Cost history and message counters are exactly additive across
legs (per-iteration traffic is constant), which is what makes a
cancel→resume job's final archive fingerprint-identical to an
uninterrupted run for the exactly-resumable solvers (gd
``mode="synchronous"``, hve, serial).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time
import uuid
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.api.config import ReconstructionConfig
from repro.utils.atomicio import atomic_write_json

__all__ = [
    "JobState",
    "JobRecord",
    "JobError",
    "job_dir",
    "list_job_ids",
    "load_record",
    "save_record",
    "create_job",
    "request_control",
    "read_control",
    "clear_control",
    "consolidate_from_archive",
    "latest_checkpoint",
    "prepare_resume",
]


class JobError(RuntimeError):
    """A job-layer failure (missing job, illegal state transition, ...)."""


class JobState:
    """The job lifecycle (plain strings — they live in JSON).

    ``QUEUED → RUNNING → DONE | FAILED | CANCELLED | PAUSED``;
    ``PAUSED``/``CANCELLED``/``FAILED`` may transition back to
    ``QUEUED`` via resume (seeded from the consolidated checkpoint).
    """

    QUEUED = "QUEUED"
    RUNNING = "RUNNING"
    PAUSED = "PAUSED"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"

    ALL = (QUEUED, RUNNING, PAUSED, DONE, FAILED, CANCELLED)
    #: States a worker is no longer driving.
    SETTLED = (PAUSED, DONE, FAILED, CANCELLED)
    #: States resume() may requeue from.
    RESUMABLE = (PAUSED, FAILED, CANCELLED)


@dataclass
class JobRecord:
    """The durable description of one submitted reconstruction job."""

    job_id: str
    config: Dict[str, Any]
    dataset_path: str
    priority: int = 0
    state: str = JobState.QUEUED
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    #: Total iterations the job must run (across all legs).
    iterations_total: int = 0
    #: Iterations the resume seed covers (see module docstring).
    iterations_done: int = 0
    #: Resume seed archive (path relative to the job dir), if any.
    seed: Optional[str] = None
    #: Completed resume cycles.
    resumes: int = 0

    def reconstruction_config(self) -> ReconstructionConfig:
        """The submitted config as a live object."""
        return ReconstructionConfig.from_dict(self.config)


# ----------------------------------------------------------------------
# Paths + (de)serialization
# ----------------------------------------------------------------------
def job_dir(root: Union[str, Path], job_id: str) -> Path:
    return Path(root) / "jobs" / job_id


def list_job_ids(root: Union[str, Path]) -> List[str]:
    """Every job id under ``root``, submission-ordered (by record time)."""
    jobs = Path(root) / "jobs"
    if not jobs.is_dir():
        return []
    ids = [p.name for p in jobs.iterdir() if (p / "job.json").is_file()]
    return sorted(
        ids, key=lambda jid: (load_record(root, jid).submitted_at, jid)
    )


def load_record(root: Union[str, Path], job_id: str) -> JobRecord:
    path = job_dir(root, job_id) / "job.json"
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise JobError(f"no job {job_id!r} under {root} ({exc})") from None
    if "carry_history" in payload:
        return _upgrade_carry(root, payload)
    return JobRecord(**payload)


def _upgrade_carry(
    root: Union[str, Path], payload: Dict[str, Any]
) -> JobRecord:
    """Convert a record written when ``job.json`` banked the completed
    legs' ledger in ``carry_*`` fields and archives held leg-local
    ledgers: fold the carry into the newest unconsolidated checkpoint,
    write it as the seed's ledger, then drop the fields.  A finished
    job's archives are already whole-run and stay as they are."""
    from repro.core.reconstructor import fold_leg
    from repro.io.storage import load_result, save_result

    record = JobRecord(**{
        k: v for k, v in payload.items() if not k.startswith("carry_")
    })
    directory = job_dir(root, record.job_id)
    carry = {
        "history": payload["carry_history"],
        "messages": payload["carry_messages"],
        "message_bytes": payload["carry_message_bytes"],
        "peak_memory_per_rank": payload["carry_peaks"],
    }
    if record.seed is not None and not (directory / "result.npz").exists():
        seed = replace(load_result(directory / record.seed), **carry)
        newest = latest_checkpoint(root, record.job_id)
        if newest is not None:
            leg = load_result(newest)
            # A conversion that died before its record write folded it.
            if leg.history[: len(seed.history)] != seed.history:
                save_result(newest, fold_leg(leg, seed), config=leg.config)
        save_result(directory / record.seed, seed, config=seed.config)
    record.iterations_done = len(carry["history"])
    save_record(root, record)
    return record


def save_record(root: Union[str, Path], record: JobRecord) -> None:
    """Atomic write (tmp+rename): readers in other processes never see a
    torn record, and a crash mid-write leaves the previous version."""
    directory = job_dir(root, record.job_id)
    directory.mkdir(parents=True, exist_ok=True)
    atomic_write_json(directory / "job.json", asdict(record), indent=2)


# ----------------------------------------------------------------------
# Submission
# ----------------------------------------------------------------------
def create_job(
    root: Union[str, Path],
    dataset: Union[str, Path, "object"],
    config: Union[ReconstructionConfig, Dict[str, Any]],
    priority: int = 0,
    job_id: Optional[str] = None,
) -> JobRecord:
    """Create a job directory + record (no server required).

    ``dataset`` is either the path of a saved acquisition archive
    (referenced in place) or an in-memory
    :class:`~repro.physics.dataset.PtychoDataset` (saved into the job
    directory so the job survives the submitting process).
    """
    if not isinstance(config, ReconstructionConfig):
        config = ReconstructionConfig.from_dict(config)
    iterations = config.solver_params.get("iterations")
    if not isinstance(iterations, int) or iterations <= 0:
        raise JobError(
            "service jobs must pin solver_params['iterations'] to a "
            "positive int (the job layer tracks progress against it)"
        )
    if config.run_params.get("resume") is not None:
        raise JobError(
            "service jobs manage resume themselves; submit a config "
            "without run_params['resume'] and use the service's "
            "cancel/resume lifecycle instead"
        )
    job_id = job_id or uuid.uuid4().hex[:12]
    directory = job_dir(root, job_id)
    if (directory / "job.json").exists():
        raise JobError(f"job {job_id!r} already exists under {root}")

    if isinstance(dataset, (str, Path)):
        dataset_path = str(Path(dataset).resolve())
        if not Path(dataset_path).is_file():
            raise JobError(f"dataset archive not found: {dataset_path}")
    else:
        from repro.io.storage import save_dataset

        directory.mkdir(parents=True, exist_ok=True)
        save_dataset(directory / "dataset.npz", dataset)
        dataset_path = "dataset.npz"

    record = JobRecord(
        job_id=job_id,
        config=config.to_dict(),
        dataset_path=dataset_path,
        priority=int(priority),
        # Record-keeping only: submitted_at is shown to humans and feeds
        # the wait-vs-run telemetry split, never queue ordering — the
        # JobQueue schedules by priority + aging, monotonic by design
        # (see repro.service.queue's wall-clock-free ordering contract).
        submitted_at=time.time(),  # repro-lint: allow[wall-clock]
        iterations_total=iterations,
    )
    save_record(root, record)
    return record


def dataset_path_of(root: Union[str, Path], record: JobRecord) -> Path:
    """Absolute path of the job's acquisition archive."""
    path = Path(record.dataset_path)
    if not path.is_absolute():
        path = job_dir(root, record.job_id) / path
    return path


# ----------------------------------------------------------------------
# Cross-process control (cancel/pause requests)
# ----------------------------------------------------------------------
def _control_path(root: Union[str, Path], job_id: str) -> Path:
    return job_dir(root, job_id) / "control.json"


def request_control(
    root: Union[str, Path],
    job_id: str,
    action: str,
    at_iteration: Optional[int] = None,
) -> None:
    """Ask the job to stop: ``action`` is ``"cancel"`` or ``"pause"``.

    ``at_iteration`` defers the stop until that many *global* iterations
    have completed (``None`` = at the next iteration boundary).  Written
    as a flag file so it works from any process; a running leg's
    controller observer reads it at every iteration boundary.
    """
    if action not in ("cancel", "pause"):
        raise ValueError(f"action must be 'cancel' or 'pause', got {action!r}")
    load_record(root, job_id)  # existence check with a clear error
    payload = {"action": action, "at_iteration": at_iteration}
    atomic_write_json(_control_path(root, job_id), payload)


def read_control(
    root: Union[str, Path], job_id: str
) -> Optional[Dict[str, Any]]:
    try:
        return json.loads(_control_path(root, job_id).read_text())
    except (OSError, json.JSONDecodeError):
        return None


def clear_control(root: Union[str, Path], job_id: str) -> None:
    _control_path(root, job_id).unlink(missing_ok=True)


# ----------------------------------------------------------------------
# Checkpoint consolidation + resume
# ----------------------------------------------------------------------
def checkpoints_dir(root: Union[str, Path], job_id: str) -> Path:
    return job_dir(root, job_id) / "checkpoints"


def latest_checkpoint(root: Union[str, Path], job_id: str) -> Optional[Path]:
    """Newest checkpoint archive of the active leg (by the iteration
    number encoded in the filename), or None."""
    directory = checkpoints_dir(root, job_id)
    if not directory.is_dir():
        return None

    def leg_iteration(path: Path) -> int:
        match = re.search(r"iter(\d+)", path.stem)
        return int(match.group(1)) if match else -1

    candidates = sorted(
        directory.glob("*.npz"), key=lambda p: (leg_iteration(p), p.name)
    )
    return candidates[-1] if candidates else None


def consolidate_from_archive(
    root: Union[str, Path], record: JobRecord, archive_path: Path
) -> None:
    """Install a leg checkpoint as the next leg's seed.

    The checkpoint already carries the whole run's ledger, so the
    record only notes how many iterations it covers.  The archive is
    moved to ``seed.npz`` and the leg's other checkpoints are dropped:
    their run-iteration names no longer collide with the next leg's,
    but each is older than the seed, and :func:`prepare_resume` would
    roll a crashed next leg back to the newest of them.
    """
    from repro.io.storage import load_result

    record.iterations_done = len(load_result(archive_path).history)
    directory = job_dir(root, record.job_id)
    seed = directory / "seed.npz"
    os.replace(archive_path, seed)
    shutil.rmtree(checkpoints_dir(root, record.job_id), ignore_errors=True)
    record.seed = "seed.npz"


def prepare_resume(root: Union[str, Path], job_id: str) -> JobRecord:
    """Requeue a settled job (offline — no server required).

    ``PAUSED``/``CANCELLED`` jobs were consolidated by the leg that
    stopped them; a ``FAILED``/crashed job may still have unconsolidated
    leg checkpoints, so the newest one is consolidated here.  The record
    comes back ``QUEUED`` with its seed installed; a running ``serve``
    picks it up at its next recovery scan (or immediately when resumed
    through :meth:`ReconstructionService.resume`).
    """
    record = load_record(root, job_id)
    if record.state not in JobState.RESUMABLE:
        raise JobError(
            f"job {job_id!r} is {record.state}; only "
            f"{'/'.join(JobState.RESUMABLE)} jobs can be resumed"
        )
    if (job_dir(root, job_id) / "result.npz").exists():
        raise JobError(f"job {job_id!r} already finished (result.npz)")
    stale = latest_checkpoint(root, job_id)
    if stale is not None:
        # A crash (or failure) left leg checkpoints nothing consolidated
        # — install the newest, drop the rest.
        consolidate_from_archive(root, record, stale)
    clear_control(root, job_id)
    record.state = JobState.QUEUED
    record.error = None
    record.resumes += 1
    save_record(root, record)
    return record
