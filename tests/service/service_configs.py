"""Tiny job configs and queue choreography shared across the service
suite."""

import contextlib

from repro.api import ReconstructionConfig
from repro.service import JobState


def gd_config(lr, iterations=6, mode="synchronous", **extra):
    params = {"n_ranks": 4, "iterations": iterations, "lr": lr, "mode": mode}
    params.update(extra)
    return ReconstructionConfig(solver="gd", solver_params=params)


def hve_config(lr, iterations=6, **extra):
    params = {"n_ranks": 4, "iterations": iterations, "lr": lr}
    params.update(extra)
    return ReconstructionConfig(solver="hve", solver_params=params)


@contextlib.contextmanager
def held_worker(service, dataset, lr, timeout=120.0):
    """Keep a ``workers=1`` service's only worker busy for the block.

    A deferred ``cancel/pause(at_iteration=k)`` fires at the first
    boundary ``>= k`` at which the running leg *sees* it, so issuing it
    after ``submit`` against a live worker races the job's first ``k``
    iterations.  Inside this block the worker is held by a blocker job
    far too long to finish, so whatever is submitted stays QUEUED and a
    deferred request issued on it is in place before its first
    iteration; leaving the block cancels the blocker and the queued
    jobs run, in submission order, with their requests already pending.
    """
    blocker = service.submit(dataset, gd_config(lr, iterations=10**9))
    try:
        yield
    finally:
        blocker.cancel()
        assert blocker.wait(timeout=timeout) == JobState.CANCELLED
