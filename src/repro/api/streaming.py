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

Between epochs the driver pumps the feeder (sweep-keyed schedules) or
waits, bounded by the policy timeout, for new frames (timed schedules) —
the WAIT half of the WAIT/END_OF_SCAN semantics.  Once coverage is
complete or the scan ended, the remaining iterations run as one final
epoch.  Observers see a single continuous run: each epoch's events pass
through :func:`~repro.core.reconstructor.relay_leg`, as a resumed static
run's do, so they are run-global (a resume archive's iterations and
traffic included) and carry the coverage fraction on
:attr:`~repro.core.observers.IterationEvent.coverage`.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.api.config import ReconstructionConfig
from repro.api.registry import solver_from_config
from repro.core.observers import Observer
from repro.core.reconstructor import ReconstructionResult, fold_leg, relay_leg
from repro.data.streaming import (
    ScanSource,
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


def _epoch_config(
    config: ReconstructionConfig,
    n_iter: int,
    covered: Optional[Tuple[int, ...]],
    policy: StreamPolicy,
    advertised: int,
) -> ReconstructionConfig:
    """The static config of one epoch: streaming fields stripped, the
    iteration budget set, and — while coverage is partial — the sweep
    restricted to the covered positions (optionally re-weighted)."""
    params: Dict[str, Any] = dict(config.solver_params)
    params["iterations"] = int(n_iter)
    params.pop("positions", None)
    if covered is not None:
        params["positions"] = [int(p) for p in covered]
        if policy.reweight:
            params["lr"] = float(params["lr"]) * (
                advertised / len(covered)
            )
    # ``data_source`` is already ``None`` (exclusive with ``scan_source``).
    return replace(
        config,
        solver_params=params,
        run_params={},
        scan_source=None,
        stream_policy=None,
    )


def _wait_for_frames(
    store: StreamingStore, n: int, policy: StreamPolicy
) -> None:
    """Bounded wait for the ``n``-th frame, with telemetry accounting
    (counted here, on the driver thread, so counters land on the
    recorder active for this run)."""
    tel = _obs.current()
    if not tel.enabled:
        store.wait_for(n, timeout=policy.wait_timeout_s)
        return
    t0 = time.perf_counter()
    try:
        store.wait_for(n, timeout=policy.wait_timeout_s)
    finally:
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
    ``prior`` is a resumed run's archive: its ledger is folded into the
    events and the result, and the feeder fast-forwards its sweep clock
    by its iterations, so the sweep-keyed waves that had arrived before
    the interrupt are re-delivered up front, deterministically
    rebuilding the frame journal the interrupted run had seen.
    """
    policy = StreamPolicy.from_mapping(config.stream_policy)
    source: ScanSource = build_scan_source(
        dict(config.scan_source or {}), dataset
    )
    if source.n_probes != dataset.n_probes or (
        source.detector_px != dataset.spec.detector_px
    ):
        raise StreamError(
            f"scan source advertises {source.n_probes} x "
            f"{source.detector_px}px frames but the dataset expects "
            f"{dataset.n_probes} x {dataset.spec.detector_px}px"
        )
    if policy.reweight and "lr" not in config.solver_params:
        raise ValueError(
            "stream_policy reweight=true needs an explicit 'lr' in "
            "solver_params (the scaled step is lr * advertised/covered)"
        )
    total = int(config.solver_params.get("iterations", 10))
    if total <= 0:
        raise ValueError("iterations must be positive")

    store = StreamingStore(
        source.n_probes, source.detector_px, source.frame_dtype
    )
    feeder = StreamFeeder(source, store)
    tel = _obs.current()
    elapsed_s = 0.0
    run_observers = tuple(observers)
    volume = initial_volume
    probe = initial_probe
    epoch_probe: Optional[np.ndarray] = None
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
                volume = None
                epoch_probe = None
            coverage_frac = len(covered) / store.n_probes
            epoch_config = _epoch_config(
                config,
                n_iter,
                None if full else covered,
                policy,
                store.n_probes,
            )
            solver = solver_from_config(epoch_config)
            # The adapter proxies attribute *reads* to the inner
            # reconstructor, so the store must be planted on .inner
            # itself; open_store passes instances straight through.
            inner = getattr(solver, "inner", solver)
            inner.options = replace(inner.options, data_source=store)
            relay = relay_leg(
                run_observers, ledger, n_iterations=banked + total,
                elapsed_s=elapsed_s, coverage=coverage_frac,
            )
            kwargs: Dict[str, Any] = {
                "observers": (relay,),
                "initial_volume": volume,
            }
            # Only forward a probe when one exists: the hve adapter
            # rejects initial_probe (no probe-refinement path), exactly
            # as it does on the static path.
            carried_probe = epoch_probe if epoch_probe is not None else probe
            if carried_probe is not None:
                kwargs["initial_probe"] = carried_probe
            t0 = time.perf_counter()
            if tel.enabled:
                with tel.span(
                    "stream.epoch",
                    epoch=epoch_index,
                    iterations=n_iter,
                    covered=len(covered),
                ):
                    epoch = solver.reconstruct(dataset, **kwargs)
                tel.count("stream.epochs")
            else:
                epoch = solver.reconstruct(dataset, **kwargs)
            elapsed_s += time.perf_counter() - t0
            ledger = fold_leg(epoch, ledger)
            volume = ledger.volume
            if ledger.probe is not None:
                epoch_probe = ledger.probe
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
