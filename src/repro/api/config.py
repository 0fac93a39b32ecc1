"""Declarative reconstruction configuration.

A :class:`ReconstructionConfig` is the serializable description of a
reconstruction run: *which* solver (a registry name, see
:mod:`repro.api.registry`), the solver's constructor parameters, and
run-level parameters applied at ``reconstruct()`` time.  It is frozen,
validated at construction, and round-trips losslessly through
``to_dict``/``from_dict`` and ``to_json``/``from_json`` — which is what
lets the CLI embed the resolved config inside every saved result archive
and replay it bit-for-bit later.

Values must be JSON-native (``None``/bool/int/float/str, lists, dicts
with string keys).  Tuples are normalized to lists at construction so a
config compares equal to its JSON round-trip.  Non-serializable objects
(arrays, mesh layouts, ...) are rejected with a pointed error; solvers
that need structured values accept their JSON spelling instead (e.g. the
``"gd"`` solver takes ``"mesh": [rows, cols]``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType
from typing import Any, Dict, Mapping, Optional

from repro.backend.base import PrecisionPolicy

__all__ = ["ReconstructionConfig"]

#: Config fields that *do* change a run's numerics: the solver
#: arithmetic itself and the compute stack it runs on.  Threaded FFTs
#: and complex64 both change the bits, so ``backend``/``dtype`` are
#: numeric, not placement detail.
_FINGERPRINT_NUMERIC_FIELDS = frozenset(
    {"solver", "solver_params", "backend", "dtype", "probe_modes"}
)

#: Config fields that never change a run's numerics — *where* and *how
#: much at a time* work happens, not *what* is computed.  Executor/
#: store/batch settings are here because every one of them is
#: fingerprint-identical by the parity suites' guarantees; run params
#: (resume source) describe how a run starts, not its arithmetic.
#:
#: Together with ``_FINGERPRINT_NUMERIC_FIELDS`` this must cover every
#: :class:`ReconstructionConfig` field exactly once —
#: ``TestFingerprintDeclaration`` in ``tests/api/test_config.py`` fails
#: when a new field is added without declaring which set it belongs to.
#: ``scan_source``/``stream_policy`` are neutral because streaming
#: never changes *what* is computed for a given coverage trajectory: a
#: source whose frames all pre-arrive is parity-pinned bit-identical to
#: the static path, and a partially-covered epoch differs only through
#: the ``positions`` solver param of the internal per-epoch configs —
#: which is numeric, and which the archived run-level config never
#: contains.
_FINGERPRINT_NEUTRAL_FIELDS = frozenset(
    {
        "run_params",
        "executor",
        "runtime_workers",
        "data_source",
        "batch_size",
        "prefetch",
        "telemetry",
        "scan_source",
        "stream_policy",
    }
)

#: ``solver_params`` keys excluded from the fingerprint even though the
#: mapping as a whole is numeric: ``iterations`` is neutral because a
#: resumed leg legitimately runs fewer iterations than the archived run
#: it continues.
_FINGERPRINT_NEUTRAL_SOLVER_PARAMS = frozenset({"iterations"})

#: Every fingerprint-neutral key, field- or solver-param-level (the set
#: :meth:`ReconstructionConfig.fingerprint` filters against).
_FINGERPRINT_NEUTRAL_KEYS = (
    _FINGERPRINT_NEUTRAL_SOLVER_PARAMS | _FINGERPRINT_NEUTRAL_FIELDS
)

#: The scalar option fields' validation, keyed on the field annotation:
#: (accepts, what the error calls a valid value).
_SCALAR_CHECKS = {
    "Optional[str]": (
        lambda v: isinstance(v, str) and bool(v),
        "a non-empty string",
    ),
    "Optional[int]": (
        lambda v: isinstance(v, int) and not isinstance(v, bool) and v > 0,
        "a positive int",
    ),
    "Optional[bool]": (lambda v: isinstance(v, bool), "a bool"),
}


def _normalize(value: Any, where: str) -> Any:
    """Deep-copy ``value`` into JSON-native types or raise ``TypeError``."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_normalize(v, f"{where}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, Mapping):
        return _normalize_mapping(value, where)
    raise TypeError(
        f"{where}: {type(value).__name__} is not JSON-serializable; "
        "configs hold only None/bool/int/float/str, lists, and dicts "
        "with string keys"
    )


def _normalize_mapping(mapping: Mapping, where: str) -> Dict[str, Any]:
    if not isinstance(mapping, Mapping):
        raise TypeError(f"{where} must be a mapping, got {type(mapping).__name__}")
    out: Dict[str, Any] = {}
    for key, value in mapping.items():
        if not isinstance(key, str):
            raise TypeError(f"{where} keys must be strings, got {key!r}")
        out[key] = _normalize(value, f"{where}[{key!r}]")
    return out


@dataclass(frozen=True)
class ReconstructionConfig:
    """Frozen, JSON-round-trippable description of a reconstruction.

    Attributes
    ----------
    solver:
        Registry name of the solver (``"gd"``, ``"hve"``, ``"serial"``,
        or any third-party :func:`~repro.api.registry.register_solver`
        registration).
    solver_params:
        Keyword arguments for the solver's constructor (e.g.
        ``{"n_ranks": 9, "iterations": 10, "lr": 0.02}``).
    run_params:
        Parameters applied by :func:`repro.api.reconstruct` at run time,
        independent of the solver — currently ``{"resume": "path.npz"}``
        to warm-start from a saved result archive.
    backend:
        Compute-backend registry name (``"numpy"``, ``"threaded"``,
        ``"cupy"``, or any :func:`repro.backend.register_backend`
        registration).  ``None`` (the default) means *ambient*: the run
        follows ``REPRO_BACKEND`` / :func:`repro.backend.use_backend` /
        the process default.  The CLI always records the resolved name,
        so saved archives replay on the backend that produced them.
    dtype:
        Compute precision: ``"complex128"`` (the bit-exact reference) or
        ``"complex64"`` (the memory-lean fast path); ``None`` follows
        the ambient default (``REPRO_DTYPE``, else ``complex128``).
    executor:
        Rank-program placement (``"serial"``, ``"process"``, or any
        :func:`repro.runtime.register_executor` registration); ``None``
        follows the ambient default (``REPRO_EXECUTOR``, else
        ``serial``).  Like ``backend``/``dtype``, an *explicit* value
        pinned here is never overridden by the environment — replayed
        archives run where they say they run.
    runtime_workers:
        Worker-pool bound for multi-process executors (``None`` = one
        worker per rank, capped at the CPU count).  Ignored by
        ``serial``.
    data_source:
        Where measured amplitudes live during the run (see
        :mod:`repro.data`): ``None``/``"memory"`` pins them in RAM (the
        bit-identical reference), a path streams from a chunked on-disk
        store.  Stores never change numerics, so replays from any
        source agree.
    batch_size:
        Probes per batched multislice sweep; ``None`` follows the
        ambient default (``REPRO_BATCH_SIZE``, else 1 — the
        per-position reference).  Every value is fingerprint-identical;
        an explicit value pinned here is never overridden by the
        environment.
    prefetch:
        Page-cache hint for an on-disk ``.npz`` store: its mapping is
        advised ``MADV_WILLNEED`` so the kernel reads ahead (a no-op
        for HDF5 and in-memory sources; ``None`` = ambient default,
        off).  Starts no thread and never changes numerics.
    probe_modes:
        Number of incoherent probe modes (mixed-state reconstruction,
        see :mod:`repro.physics.probe`).  ``None``/1 is the scalar
        path, bit-identical to the historical behaviour — and
        fingerprint-identical to pre-mixed-state archives; ``M > 1``
        changes the forward model (incoherent intensity sum over an
        ``(M, w, w)`` mode stack) and therefore the numerics, so it
        *is* hashed into the fingerprint.
    telemetry:
        Record tracing spans and counters during the run (see
        :mod:`repro.obs`); ``None`` follows the ambient default
        (``REPRO_TRACE``, else off).  Telemetry never changes numerics
        — it is fingerprint-neutral by construction, and the obs test
        suite pins disabled runs bit-identical to the golden
        fingerprints.
    scan_source:
        Streaming acquisition spec (see
        :func:`repro.data.build_scan_source`): ``None`` (the default)
        is the static path; a mapping like ``{"kind": "replay",
        "waves": 4}`` or a scripted ``{"kind": "simulated", ...}``
        schedule routes the run through the streaming driver, whose
        frames arrive while the solver sweeps.  Mutually exclusive
        with ``data_source`` — the stream *is* the measurement source.
    stream_policy:
        Run-level streaming knobs (see
        :class:`repro.data.StreamPolicy`): wait timeout, minimum start
        coverage, sweeps per coverage snapshot, deterministic
        re-weighting, restart-on-growth.  Ignored unless
        ``scan_source`` is set.
    """

    solver: str
    solver_params: Mapping[str, Any] = field(default_factory=dict)
    run_params: Mapping[str, Any] = field(default_factory=dict)
    backend: Optional[str] = None
    dtype: Optional[str] = None
    executor: Optional[str] = None
    runtime_workers: Optional[int] = None
    data_source: Optional[str] = None
    batch_size: Optional[int] = None
    prefetch: Optional[bool] = None
    probe_modes: Optional[int] = None
    telemetry: Optional[bool] = None
    scan_source: Optional[Mapping[str, Any]] = None
    stream_policy: Optional[Mapping[str, Any]] = None

    def __post_init__(self) -> None:
        if not isinstance(self.solver, str) or not self.solver:
            raise ValueError("solver must be a non-empty string")
        for f in fields(self):
            value = getattr(self, f.name)
            # ``dtype`` names are the precision registry's to judge (below).
            if value is None or f.name == "dtype" or f.type not in _SCALAR_CHECKS:
                continue
            accepts, valid = _SCALAR_CHECKS[f.type]
            if not accepts(value):
                raise ValueError(f"{f.name} must be {valid} or None")
        # Validates the name only (whether the backend is *registered/
        # available* is a run-time question, so configs written for
        # other machines stay loadable).
        if self.dtype is not None:
            PrecisionPolicy.from_name(self.dtype)
        object.__setattr__(
            self,
            "solver_params",
            MappingProxyType(_normalize_mapping(self.solver_params, "solver_params")),
        )
        object.__setattr__(
            self,
            "run_params",
            MappingProxyType(_normalize_mapping(self.run_params, "run_params")),
        )
        if self.scan_source is not None and self.data_source is not None:
            raise ValueError(
                "scan_source and data_source are mutually exclusive: a "
                "streamed run reads from the stream, not a static store"
            )
        for name in ("scan_source", "stream_policy"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(
                    self,
                    name,
                    MappingProxyType(_normalize_mapping(value, name)),
                )

    def __hash__(self) -> int:
        # The dataclass-generated hash would choke on the mapping-proxy
        # fields; the canonical JSON form (sorted keys) is a faithful
        # stand-in — equal configs serialize identically.
        return hash(self.to_json())

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (deep-copied; safe to mutate)."""
        out: Dict[str, Any] = {}
        for key in _CONFIG_KEYS:
            value = getattr(self, key)
            out[key] = (
                _normalize_mapping(value, key)
                if isinstance(value, Mapping)
                else value
            )
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ReconstructionConfig":
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        if not isinstance(payload, Mapping):
            raise TypeError(
                f"config payload must be a mapping, got {type(payload).__name__}"
            )
        unknown = set(payload) - set(_CONFIG_KEYS)
        if unknown:
            raise ValueError(
                f"unknown config keys {sorted(unknown)}; "
                f"expected a subset of {list(_CONFIG_KEYS)}"
            )
        if "solver" not in payload:
            raise ValueError("config payload is missing the 'solver' key")
        # Pre-backend/pre-runtime/pre-data archives carry none of the
        # later keys; they load as "ambient" — which resolves to the
        # numpy/complex128/serial/in-memory/per-position reference they
        # were produced with unless redirected.
        return cls(**{k: payload[k] for k in _CONFIG_KEYS if k in payload})

    def to_json(self, indent: int = 2) -> str:
        """JSON text form (lossless; see module docstring)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ReconstructionConfig":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    # -- identity ------------------------------------------------------
    def fingerprint(self) -> str:
        """SHA-256 identity of the *numerics* this config describes.

        Two configs share a fingerprint exactly when they would drive
        the same solver arithmetic on the same data: the solver name,
        every numerics-relevant solver parameter, and the resolved
        backend/precision pair.  Deliberately excluded (see
        ``_FINGERPRINT_NEUTRAL_KEYS``): ``iterations`` (a resumed leg
        runs the *remaining* iterations), run params, and the
        executor/store/batching knobs, all of which are
        fingerprint-identical by construction.  Ambient ``None``
        backend/dtype fields resolve at call time, so a config that
        spells ``"numpy"`` explicitly matches one that inherits it —
        which also means an ambient config's fingerprint *floats* with
        the process default.  Writers of durable archives should pin
        the resolved names first (``with_compute``), as the service
        does, so the archived fingerprint records what actually ran.

        This is what resume validation compares: a checkpoint archived
        under one fingerprint refuses to seed a run with another (see
        :class:`repro.api.reconstruct.ResumeMismatchError`).
        """
        from repro.backend.base import (
            default_dtype_name,
            resolve_backend,
        )

        backend = self.backend
        if backend is None:
            backend = resolve_backend(None).name
        dtype = self.dtype if self.dtype is not None else default_dtype_name()
        params = {
            k: v
            for k, v in sorted(self.solver_params.items())
            if k not in _FINGERPRINT_NEUTRAL_KEYS
        }
        body: Dict[str, Any] = {
            "solver": self.solver,
            "solver_params": params,
            "backend": backend,
            "dtype": dtype,
        }
        # Single-mode (None or 1) is bit-identical to the historical
        # scalar path, so it must hash to the historical bytes — the
        # key only enters the payload for genuinely mixed-state runs.
        if self.probe_modes is not None and self.probe_modes > 1:
            body["probe_modes"] = int(self.probe_modes)
        payload = json.dumps(body, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    # -- derivation ----------------------------------------------------
    def _replace(self, **updates: Any) -> "ReconstructionConfig":
        """New config with the given fields replaced (``None`` values in
        ``updates`` keep the current field — the CLI-override rule)."""
        return replace(
            self, **{k: v for k, v in updates.items() if v is not None}
        )

    def with_solver_params(self, **updates: Any) -> "ReconstructionConfig":
        """New config with ``solver_params`` keys merged/overridden."""
        merged = dict(self.solver_params)
        merged.update(updates)
        return self._replace(solver_params=merged)

    def with_run_params(self, **updates: Any) -> "ReconstructionConfig":
        """New config with ``run_params`` keys merged/overridden."""
        merged = dict(self.run_params)
        merged.update(updates)
        return self._replace(run_params=merged)

    def with_compute(
        self, backend: Optional[str] = None, dtype: Optional[str] = None
    ) -> "ReconstructionConfig":
        """New config with the compute backend and/or precision replaced
        (``None`` keeps the current value) — how the CLI replays an
        archived run on a different backend, and how the benchmark
        harness sweeps the backend × precision scenario grid."""
        return self._replace(backend=backend, dtype=dtype)

    def with_runtime(
        self,
        executor: Optional[str] = None,
        runtime_workers: Optional[int] = None,
    ) -> "ReconstructionConfig":
        """New config with the executor and/or worker bound replaced
        (``None`` keeps the current value) — how the CLI replays an
        archived run under a different execution runtime."""
        return self._replace(
            executor=executor, runtime_workers=runtime_workers
        )

    def with_data(
        self,
        data_source: Optional[str] = None,
        batch_size: Optional[int] = None,
        prefetch: Optional[bool] = None,
    ) -> "ReconstructionConfig":
        """New config with the measurement source, batch size and/or
        prefetch flag replaced (``None`` keeps the current value) — how
        the CLI replays an archived run against a different store, and
        how the data benchmark sweeps batch sizes."""
        return self._replace(
            data_source=data_source,
            batch_size=batch_size,
            prefetch=prefetch,
        )

    def with_probe(
        self, probe_modes: Optional[int] = None
    ) -> "ReconstructionConfig":
        """New config with the probe mode count replaced (``None`` keeps
        the current value) — how ``repro reconstruct --probe-modes``
        overrides an archived config's mixed-state setting."""
        return self._replace(probe_modes=probe_modes)

    def with_telemetry(self, telemetry: bool = True) -> "ReconstructionConfig":
        """New config with telemetry recording pinned on (or off) —
        how ``repro reconstruct --trace`` turns tracing on without
        touching any numerics-relevant field (``None`` keeps the
        current value, like every other ``with_*`` helper)."""
        return self._replace(telemetry=telemetry)

    def with_stream(
        self,
        scan_source: Optional[Mapping[str, Any]] = None,
        stream_policy: Optional[Mapping[str, Any]] = None,
    ) -> "ReconstructionConfig":
        """New config routed through the streaming driver (``None``
        keeps the current value) — how ``repro reconstruct --stream``
        attaches an arrival schedule and its policy knobs to an
        otherwise-static config."""
        return self._replace(
            scan_source=scan_source, stream_policy=stream_policy
        )


#: The serialized keys, in schema order — the dataclass fields.
_CONFIG_KEYS = tuple(f.name for f in fields(ReconstructionConfig))
