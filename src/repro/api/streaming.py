"""The streaming reconstruction driver: epochs over coverage snapshots.

A streamed run (``config.scan_source`` set) is executed as a sequence of
*epochs* — static sub-runs, each planned against the coverage snapshot
taken at its start and warm-started from the previous epoch's volume.
That construction is what makes the two parity invariants hold exactly:

* **Full pre-arrival** — when every frame arrives before iteration 0,
  the driver collapses to ONE epoch with no ``positions`` restriction,
  i.e. literally the static path reading from a
  :class:`~repro.data.StreamingStore` (parity-pinned bit-identical to
  the in-memory reference by the store suite).
* **Wave parity** — a run streamed in K waves equals K static runs with
  ``positions`` pinned to the same coverage snapshots, each resumed
  from its predecessor's volume (pinned by
  ``tests/data/test_stream_parity.py``).

Each epoch is one leg of the run, run by the same leg runner as a
static or resumed run (``repro.api.reconstruct._run_leg``): its solver
is built from the epoch's config plus the in-process store and the
coverage snapshot as ``positions``, it continues the ledger of the
epochs (and resume archive) before it, and its events and divergence
are run-global (:func:`~repro.core.reconstructor.relay_leg`,
:func:`~repro.core.reconstructor.raise_in_run`), with the coverage
fraction stamped on :attr:`~repro.core.observers.IterationEvent.coverage`.
What is left here is the streaming itself: the coverage and epoch
decisions, the feeder, and the ``stream.*`` telemetry.  Between epochs
the driver pumps the feeder (sweep-keyed schedules) or waits, bounded by
the policy timeout, for new frames (timed schedules) — the WAIT half of
the WAIT/END_OF_SCAN semantics.  Once coverage is complete or the scan
ended, the remaining iterations run as one final epoch.  A solver whose
``accepted_params`` lack ``positions`` or ``data_source`` cannot stream
and is refused before any frame is fed.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import replace
from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.api.config import ReconstructionConfig
from repro.api.reconstruct import _run_leg
from repro.api.registry import SolverCapabilityError, get_solver
from repro.core.observers import Observer
from repro.core.reconstructor import ReconstructionResult
from repro.data.streaming import (
    StreamError,
    StreamFeeder,
    StreamingStore,
    StreamPolicy,
    build_scan_source,
)
from repro.io.storage import ResultArchive
from repro.obs import telemetry as _obs
from repro.physics.dataset import PtychoDataset

__all__ = ["run_streaming"]

#: The run options an epoch's solver is built with: the in-process
#: store it reads, and the coverage snapshot its sweeps are planned on.
_EPOCH_OPTIONS = frozenset({"data_source", "positions"})


def _wait_for_frames(
    store: StreamingStore, n: int, policy: StreamPolicy
) -> None:
    """Bounded wait for the ``n``-th frame, with telemetry accounting
    (counted here, on the driver thread, so counters land on the
    recorder active for this run)."""
    tel = _obs.current()
    t0 = time.perf_counter()
    try:
        store.wait_for(n, timeout=policy.wait_timeout_s)
    finally:
        if tel.enabled:
            tel.add({
                "stream.waits": 1,
                "stream.wait_seconds": time.perf_counter() - t0,
            })


def run_streaming(
    dataset: PtychoDataset,
    config: ReconstructionConfig,
    observers: Sequence[Observer] = (),
    *,
    initial_probe: Optional[np.ndarray] = None,
    initial_volume: Optional[np.ndarray] = None,
    prior: Optional[ResultArchive] = None,
) -> ReconstructionResult:
    """Execute a streamed reconstruction (see module docstring).

    Called by :func:`repro.api.reconstruct.reconstruct` when
    ``config.scan_source`` is set; not normally invoked directly.
    ``prior`` is a resumed run's archive: the first epoch continues it,
    and the feeder fast-forwards its sweep clock by its iterations, so
    the sweep-keyed waves that had arrived before the interrupt are
    re-delivered up front, deterministically rebuilding the frame
    journal the interrupted run had seen.
    """
    accepted = getattr(get_solver(config.solver), "accepted_params", ())
    missing = sorted(_EPOCH_OPTIONS - set(accepted))
    if missing:
        raise SolverCapabilityError(
            f"solver {config.solver!r} cannot stream: a scan_source run "
            f"plans each epoch over the frames arrived so far, which "
            f"needs {missing} in the solver's accepted_params"
        )
    policy = StreamPolicy.from_mapping(config.stream_policy)
    schedule = build_scan_source(dict(config.scan_source or {}), dataset)
    if policy.reweight and "lr" not in config.solver_params:
        raise ValueError(
            "stream_policy reweight=true needs an explicit 'lr' in "
            "solver_params (the scaled step is lr * advertised/covered)"
        )
    total = int(config.solver_params.get("iterations", 10))
    if total <= 0:
        raise ValueError("iterations must be positive")

    amplitudes = schedule.amplitudes
    store = StreamingStore(
        amplitudes.shape[0], amplitudes.shape[1], amplitudes.dtype
    )
    feeder = StreamFeeder(schedule, store)
    tel = _obs.current()
    elapsed_s = 0.0
    volume, probe = initial_volume, initial_probe
    banked = len(prior.history) if prior is not None else 0
    # The run so far: the resume archive, then each epoch folded on.
    ledger: Any = prior

    try:
        # -- prime: first frames must exist before iteration 0 ---------
        if feeder.mode == "timed":
            feeder.start()
            _wait_for_frames(store, policy.min_start_frames, policy)
        else:
            feeder.feed_until(banked)
        status = store.poll()
        if tel.enabled:
            tel.add({"stream.frames_arrived": float(status.arrived)})
        if status.arrived < policy.min_start_frames:
            raise StreamError(
                f"only {status.arrived} frame(s) available before the "
                f"first sweep but the stream policy requires "
                f"{policy.min_start_frames} (min_start_frames); the "
                "schedule must deliver them at sweep 0"
            )

        # -- epoch loop ------------------------------------------------
        it_done = 0
        epoch_index = 0
        prev_covered = -1
        while it_done < total:
            status = store.poll()
            covered = store.coverage()
            full = len(covered) >= store.n_probes
            settled = (
                full
                or status.end_of_scan
                or (feeder.mode == "sweep" and feeder.exhausted())
            )
            n_iter = (
                total - it_done
                if settled
                else min(policy.sweeps_per_epoch, total - it_done)
            )
            if (
                policy.on_growth == "restart"
                and prev_covered >= 0
                and len(covered) > prev_covered
            ):
                # Coverage grew: discard the warm start and let this
                # epoch begin from vacuum over the wider position set.
                volume, probe = None, initial_probe
            # The epoch's solver params: its iteration budget and, while
            # coverage is partial and the policy asks, the step scaled
            # by advertised / covered.
            params: Dict[str, Any] = {
                **config.solver_params, "iterations": n_iter
            }
            if policy.reweight and not full:
                params["lr"] = float(params["lr"]) * (
                    store.n_probes / len(covered)
                )
            span = tel.span(
                "stream.epoch",
                epoch=epoch_index,
                iterations=n_iter,
                covered=len(covered),
            ) if tel.enabled else nullcontext()
            t0 = time.perf_counter()
            with span:
                ledger = _run_leg(
                    dataset,
                    replace(config, solver_params=params),
                    observers,
                    ledger,
                    initial_probe=probe,
                    initial_volume=volume,
                    n_iterations=banked + total,
                    elapsed_s=elapsed_s,
                    coverage=len(covered) / store.n_probes,
                    data_source=store,
                    positions=None if full else list(covered),
                )
            if tel.enabled:
                tel.count("stream.epochs")
            elapsed_s += time.perf_counter() - t0
            volume = ledger.volume
            if ledger.probe is not None:
                probe = ledger.probe
            it_done += n_iter
            epoch_index += 1
            prev_covered = len(covered)
            if it_done >= total:
                break
            # -- pump arrivals for the next epoch ----------------------
            arrived_before = status.arrived
            if feeder.mode == "sweep":
                delivered = feeder.feed_until(banked + it_done)
                if tel.enabled and delivered:
                    tel.add({"stream.frames_arrived": float(delivered)})
            else:
                fresh = store.poll()
                if not fresh.complete and fresh.arrived == arrived_before:
                    # Nothing arrived during the whole epoch: wait
                    # (bounded) for one more frame — a stalled source
                    # surfaces StreamTimeout here instead of hanging.
                    _wait_for_frames(store, arrived_before + 1, policy)
                after = store.poll()
                if tel.enabled and after.arrived > arrived_before:
                    tel.add({
                        "stream.frames_arrived": float(
                            after.arrived - arrived_before
                        )
                    })
    finally:
        feeder.stop()

    assert isinstance(ledger, ReconstructionResult)  # total > 0
    return ledger
