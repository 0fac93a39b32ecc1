"""The run options: *how* and *where* a reconstruction executes.

One frozen, picklable :class:`RunOptions` is carried **whole** from a
reconstructor through the :class:`~repro.runtime.executor.EnginePlan` to
the numeric engine and into worker processes.  A layer reads
``options.<field>`` at the point of use and never re-lists the fields,
so a new run option is a field here, its consumer, and a test
(CONTRIBUTING.md, "Adding a run option").
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, FrozenSet, Optional, Sequence

__all__ = ["RunOptions"]


@dataclass(frozen=True)
class RunOptions:
    """Every setting is orthogonal to the others and fingerprint-identical
    to the reference it replaces unless stated; ``None`` = ambient default.

    Attributes
    ----------
    backend / dtype:
        Compute backend (registry name or instance) and precision policy,
        see :mod:`repro.backend`.  Ambient: ``REPRO_BACKEND`` /
        ``REPRO_DTYPE``, else ``numpy`` / ``complex128`` (the historical
        hard-wired pair).  These two change the bits (threaded FFTs,
        complex64).
    executor / runtime_workers:
        Where the rank programs run, see :mod:`repro.runtime`:
        ``"serial"`` hosts every rank in this process (the bit-exact
        reference), ``"process"`` runs each rank block in a worker
        process with tile state in shared memory (``runtime_workers``
        bounds the pool) and reproduces ``serial`` bit for bit on the
        numpy backend.  Ambient: ``REPRO_EXECUTOR``, else ``serial``; an
        explicit value is never overridden by the environment.
    data_source / batch_size / prefetch:
        Measurement source and batching, see :mod:`repro.data`.
        ``None``/``"memory"`` pins each rank's measurement shard in RAM
        (the historical behaviour), a path streams lazily from a chunked
        on-disk store (``prefetch=True`` asks the kernel to read an
        ``.npz`` store's mapping ahead; a no-op for HDF5), a
        :class:`~repro.data.DiffractionStore` instance
        is used as-is (the caller keeps ownership); stores never change
        numerics.  ``batch_size`` probes *per rank* run through each
        multislice call as one FFT batch where order permits; a sweep
        that updates the volume between probes (Alg. 1 local steps,
        halo-exchange local solves) contributes one position per rank
        per call, and ranks sharing an engine share that call.  Ambient:
        ``REPRO_BATCH_SIZE``, else 1.
    positions:
        Restrict sweeps to this scan-position subset (``None`` = the full
        scan).  The streaming driver plans each epoch over a coverage
        snapshot this way; decompositions stay on the full scan, so a
        restricted run is the full run with the missing probes' terms
        skipped.
    probe_modes:
        Incoherent probe modes (mixed-state reconstruction, see
        :mod:`repro.physics.probe`).  ``None``/1 is the scalar path,
        bit-identical to the historical behaviour; ``M > 1`` carries an
        ``(M, w, w)`` mode stack and changes the forward model.
    """

    backend: Any = None
    dtype: Any = None
    executor: Any = None
    runtime_workers: Optional[int] = None
    data_source: Any = None
    batch_size: Optional[int] = None
    prefetch: bool = False
    positions: Optional[Sequence[int]] = None
    probe_modes: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("runtime_workers", "batch_size", "probe_modes"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive")
        object.__setattr__(self, "prefetch", bool(self.prefetch))

    @classmethod
    def names(cls) -> FrozenSet[str]:
        """The option names (what an adapter's ``accepted_params`` adds)."""
        return frozenset(f.name for f in fields(cls))

    @classmethod
    def of(
        cls, options: Optional["RunOptions"] = None, **option_fields: Any
    ) -> "RunOptions":
        """``options`` itself, overridden by any keyword spelling — how a
        constructor takes ``options=`` and/or ``batch_size=8`` alike.  An
        unknown keyword is a ``TypeError``."""
        if options is None:
            return cls(**option_fields)
        return replace(options, **option_fields) if option_fields else options
