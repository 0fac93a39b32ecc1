"""The single entry point every solver runs through.

``repro.reconstruct(dataset, config)`` resolves the config's solver name
through the registry, instantiates it with the config's
``solver_params``, applies the run-level parameters (currently
``resume``), and executes — one code path for the paper's Algorithm 1,
the halo-exchange baseline, the serial solver, and any third-party
registration.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence, Union

import numpy as np

from repro.api.config import ReconstructionConfig
from repro.api.registry import solver_from_config
from repro.backend.base import resolve_backend, resolve_precision
from repro.data import open_store, resolve_batch_size
from repro.core.observers import Observer
from repro.core.reconstructor import (
    ReconstructionResult,
    fold_leg,
    raise_in_run,
    relay_leg,
)
from repro.io.storage import ResultArchive, load_result
from repro.obs import telemetry as _obs
from repro.physics.dataset import PtychoDataset
from repro.runtime.executor import default_executor_name, get_executor

__all__ = ["reconstruct", "ResumeMismatchError", "RUN_PARAM_KEYS"]

#: run_params keys :func:`reconstruct` understands.
RUN_PARAM_KEYS = frozenset({"resume", "resume_unchecked"})


class ResumeMismatchError(ValueError):
    """A resume archive was produced by numerically different config.

    Raised when the config embedded in a ``run_params={"resume": path}``
    archive has a different :meth:`~repro.api.config.
    ReconstructionConfig.fingerprint` than the submitted config — i.e.
    the checkpoint was written by a different solver, different
    numerics-relevant solver parameters, or a different
    backend/precision pair, so silently continuing would reconstruct
    the wrong thing.  Archives without an embedded config skip the
    check (nothing to compare); ``run_params={"resume_unchecked":
    True}`` skips it explicitly (deliberate warm-starting across
    configs, e.g. seeding a complex64 run from a complex128 archive).
    """


def reconstruct(
    dataset: PtychoDataset,
    config: Union[ReconstructionConfig, Mapping[str, Any]],
    observers: Sequence[Observer] = (),
    *,
    initial_probe: Optional[np.ndarray] = None,
    initial_volume: Optional[np.ndarray] = None,
) -> ReconstructionResult:
    """Run the reconstruction a config describes.

    Parameters
    ----------
    dataset:
        The acquisition to reconstruct.
    config:
        A :class:`~repro.api.config.ReconstructionConfig` (or its
        ``to_dict`` form, converted on the fly).
    observers:
        Callables receiving one
        :class:`~repro.core.observers.IterationEvent` per iteration.
    initial_probe / initial_volume:
        In-memory starting state, forwarded to the solver.  Arrays do
        not belong in configs; for an on-disk warm start use
        ``run_params={"resume": "result.npz"}`` instead (an explicit
        ``initial_volume`` argument wins over ``resume``).

    A ``resume`` continues the archive's run: ``solver_params
    ["iterations"]`` counts the iterations still to run, and the
    returned result — like every event's ``snapshot()``, hence every
    checkpoint — carries the archive's ledger (history, traffic, memory
    peaks) folded in, so it describes the whole run, as the
    uninterrupted run's would.  Events are run-global too
    (:func:`~repro.core.reconstructor.relay_leg`): ``iteration``,
    ``n_iterations`` and the traffic counters continue the archive's,
    so checkpoint names and cadence follow run iterations; only
    ``elapsed_s`` counts from this call.  A resumed streamed run
    fast-forwards its scan source past the archive's iterations.

    Raises
    ------
    UnknownSolverError
        Config names a solver that is not registered.
    SolverCapabilityError
        Config asks the solver for something it cannot do.
    UnknownBackendError / BackendUnavailableError
        Config names a compute backend that is not registered, or one
        that cannot run here (e.g. ``"cupy"`` without a GPU) — checked
        up front, before any solver work starts.
    UnknownExecutorError
        Config names an execution runtime that is not registered.
    StoreFormatError / StoreUnavailableError / ValueError
        Config names a ``data_source`` that is missing, unreadable,
        geometry-mismatched, or needs an uninstalled dependency —
        checked up front, like the backend.
    ResumeMismatchError
        ``run_params["resume"]`` names an archive whose embedded config
        has a different numerics fingerprint than ``config`` (pass
        ``run_params={"resume_unchecked": True}`` to warm-start across
        configs deliberately).
    ValueError
        Unknown ``run_params`` key, or a non-positive ``batch_size``.
    """
    if not isinstance(config, ReconstructionConfig):
        config = ReconstructionConfig.from_dict(config)
    unknown = set(config.run_params) - RUN_PARAM_KEYS
    if unknown:
        raise ValueError(
            f"unknown run_params key(s) {sorted(unknown)}; "
            f"supported: {sorted(RUN_PARAM_KEYS)}"
        )
    # Fail fast on an unrunnable compute/runtime configuration —
    # including the ambient (None → environment) resolutions, so a
    # REPRO_EXECUTOR typo surfaces here, not after dataset decomposition.
    # Note the precedence contract: an explicit config field always
    # wins; REPRO_BACKEND / REPRO_DTYPE / REPRO_EXECUTOR only fill None
    # ("ambient") fields.
    resolve_backend(config.backend)
    resolve_precision(config.dtype)
    get_executor(
        config.executor
        if config.executor is not None
        else default_executor_name()
    )
    # Same fail-fast treatment for the data pipeline: a missing or
    # geometry-mismatched store surfaces here, and the probe-open also
    # validates readability (format, version) before any solver work.
    store, owned = open_store(
        config.data_source, dataset=dataset
    )
    if owned:
        store.close()
    resolve_batch_size(config.batch_size)
    # Streamed runs (scan_source set) defer solver construction to the
    # epoch driver, which builds one static solver per coverage epoch.
    solver = None if config.scan_source is not None else solver_from_config(
        config
    )
    resume = config.run_params.get("resume")
    prior: Optional[ResultArchive] = None
    if initial_volume is None and resume is not None:
        archive = load_result(resume)
        if archive.config is not None and not config.run_params.get(
            "resume_unchecked"
        ):
            expected = archive.config.fingerprint()
            actual = config.fingerprint()
            if expected != actual:
                raise ResumeMismatchError(
                    f"resume archive {resume} was produced by a "
                    f"numerically different configuration (archived "
                    f"solver {archive.config.solver!r} on backend "
                    f"{archive.config.backend or 'ambient'}/"
                    f"{archive.config.dtype or 'ambient'}, fingerprint "
                    f"{expected[:12]}; submitted {config.solver!r} on "
                    f"{config.backend or 'ambient'}/"
                    f"{config.dtype or 'ambient'}, fingerprint "
                    f"{actual[:12]}); pass run_params="
                    '{"resume_unchecked": true} to warm-start across '
                    "configs deliberately"
                )
        initial_volume = archive.volume
        prior = archive
        # A refined probe archived with the checkpoint is part of the
        # optimization state; forwarding it makes resume bit-exact for
        # probe-refining runs instead of silently restarting the probe
        # from the dataset's nominal one.
        if initial_probe is None and archive.probe is not None:
            initial_probe = archive.probe
    if prior is not None and observers and solver is not None:
        observers = (relay_leg(observers, prior),)
    # A recorder already activated by the caller (the CLI's --trace, a
    # service worker) is reused so its spans and the run's spans land on
    # one timeline; otherwise the usual precedence applies — explicit
    # config field beats REPRO_TRACE beats off — and an enabled run gets
    # its own run-scoped recorder.  Either way the aggregated summary is
    # attached to the result (and from there to saved archives).
    cfg: ReconstructionConfig = config

    def _run() -> ReconstructionResult:
        if solver is None:
            # Local import: repro.api.streaming imports this module's
            # sibling registry, so a top-level import would be circular.
            from repro.api.streaming import run_streaming

            return run_streaming(
                dataset,
                cfg,
                observers=observers,
                initial_probe=initial_probe,
                initial_volume=initial_volume,
                prior=prior,
            )
        with raise_in_run(prior):
            leg = solver.reconstruct(
                dataset,
                observers=observers,
                initial_probe=initial_probe,
                initial_volume=initial_volume,
            )
        return fold_leg(leg, prior)

    ambient = _obs.current()
    if ambient.enabled:
        result = _run()
        result.telemetry = ambient.summary()
        return result
    if _obs.resolve_telemetry(config.telemetry):
        tel = _obs.Telemetry()
        with _obs.activate(tel):
            result = _run()
        result.telemetry = tel.summary()
        return result
    return _run()
