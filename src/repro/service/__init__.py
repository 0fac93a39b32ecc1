"""repro.service — reconstruction-as-a-service: async jobs over the
library's solver/backend/executor registries.

The pieces (one module each):

* :class:`ReconstructionService` / :class:`JobHandle` — the job system:
  supervisor threads draining a queue, each running a job's leg in its
  own forked process, with submit / status / cancel
  / pause / resume / result / list lifecycle and durable on-disk state
  (a restarted service over the same root picks up where it left off).
* :class:`JobQueue` — deterministic priority scheduling with aging-based
  FIFO fairness (no starvation).
* :class:`ProgressStream` / :class:`ProgressUpdate` /
  :func:`read_progress` — live per-iteration cost/rate/ETA, pollable
  in-process and mirrored to JSON for cross-process clients.
* :mod:`repro.service.jobs` — the job-directory format (records,
  datasets, checkpoints, control flags) and the leg-accounting that
  keeps cancel→resume jobs fingerprint-identical to uninterrupted runs.

Minimal use::

    from repro.api import ReconstructionConfig
    from repro.service import ReconstructionService

    with ReconstructionService("jobs_root", workers=2) as svc:
        handle = svc.submit("dataset.npz", ReconstructionConfig(
            solver="gd",
            solver_params={"n_ranks": 4, "iterations": 20, "lr": 0.02,
                           "mode": "synchronous"},
        ))
        handle.wait()
        archive = handle.result()
"""

from repro.service.jobs import (
    JobError,
    JobRecord,
    JobState,
    create_job,
    list_job_ids,
    load_record,
    prepare_resume,
    request_control,
)
from repro.service.progress import ProgressStream, ProgressUpdate, read_progress
from repro.service.queue import JobQueue, QueueClosedError
from repro.service.service import JobHandle, ReconstructionService

__all__ = [
    "ReconstructionService",
    "JobHandle",
    "JobQueue",
    "QueueClosedError",
    "JobError",
    "JobRecord",
    "JobState",
    "create_job",
    "list_job_ids",
    "load_record",
    "prepare_resume",
    "request_control",
    "ProgressStream",
    "ProgressUpdate",
    "read_progress",
]
