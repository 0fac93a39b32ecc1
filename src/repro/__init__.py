"""repro — reproduction of "Image Gradient Decomposition for Parallel and
Memory-Efficient Ptychographic Reconstruction" (SC 2022).

Public API highlights
---------------------
Config-driven reconstruction (the recommended entry point):
    :func:`repro.reconstruct` runs any registered solver from a
    :class:`repro.api.ReconstructionConfig`; solvers ``"gd"``, ``"hve"``
    and ``"serial"`` ship registered, and third parties add their own
    with :func:`repro.api.register_solver`.  Per-iteration observation
    goes through :class:`repro.api.IterationEvent` observers
    (:class:`repro.api.CheckpointPolicy` snapshots runs to disk).

Compute backends / precision:
    :mod:`repro.backend` — the :func:`repro.register_backend` registry
    (``numpy``/``threaded``/``cupy``), :class:`repro.PrecisionPolicy`
    (``complex128`` reference, ``complex64`` fast path), and
    :func:`repro.use_backend`; configs carry ``backend=``/``dtype=``.

Execution runtime:
    :mod:`repro.runtime` — the executor registry (``serial`` in-process
    reference, ``process`` multi-worker pool with shared-memory tile
    state); configs carry ``executor=``/``runtime_workers=``, and the
    ``process`` executor reproduces ``serial`` bit-for-bit on the numpy
    backend.

Reconstruction-as-a-service:
    :mod:`repro.service` — :class:`repro.service.ReconstructionService`
    runs submitted configs asynchronously, each job leg in its own
    forked process, with priority queueing, cancel/pause/resume on
    durable checkpoints, and live :class:`repro.service.ProgressStream`
    progress; the ``repro serve`` / ``submit`` / ``jobs`` CLI drives a
    job directory that survives restarts.

Observability:
    :mod:`repro.obs` — zero-dependency telemetry: per-run
    :class:`repro.obs.Telemetry` recorders (spans, counters, per-rank
    timelines), Chrome trace-event export for
    ``chrome://tracing``/Perfetto, aggregated phase-breakdown
    summaries (``repro stats``), and the ``repro.*`` structured
    logging hierarchy; configs carry ``telemetry=``, the CLI
    ``--trace``, the environment ``REPRO_TRACE``/``REPRO_LOG``.

Streaming & batching:
    :mod:`repro.data` — :class:`repro.data.DiffractionStore`
    measurement stores (in-memory reference, chunked on-disk read
    through a file mapping) and :func:`repro.data.write_store`; configs
    carry ``data_source=``/``batch_size=``/``prefetch=``, and every
    setting is fingerprint-identical to the per-position in-memory
    reference.

Physics / data:
    :func:`repro.physics.simulate_dataset`,
    :func:`repro.physics.scaled_pbtio3_spec`,
    :func:`repro.physics.small_pbtio3_spec`,
    :func:`repro.physics.large_pbtio3_spec`

Reconstructor classes (what the registry names ``gd``, ``hve``, ``serial``):
    :class:`repro.core.GradientDecompositionReconstructor` (the paper's
    Algorithm 1), :class:`repro.baseline.HaloExchangeReconstructor` (the
    state-of-the-art baseline), :class:`repro.baseline.SerialReconstructor`
    (one rank holding the whole volume: either of the other two's
    one-rank schedule)

Scale/performance models (Tables II/III, Fig. 7):
    :class:`repro.perfmodel.MachineSpec`,
    :class:`repro.perfmodel.PerformancePredictor`

Experiments (one per paper table/figure):
    :mod:`repro.experiments` — ``run_table1`` .. ``run_fig9``, all
    reachable through :data:`repro.experiments.EXPERIMENTS`

See README.md for a quickstart built on ``repro.reconstruct``.
"""

__version__ = "1.1.0"

import logging as _logging

# Library-logging contract: every repro module logs under the "repro"
# namespace; the NullHandler keeps the library silent unless the
# application (or the CLI's -v/--log-level) opts in.
_logging.getLogger("repro").addHandler(_logging.NullHandler())

from repro import obs  # noqa: F401  (re-exported subpackages)
from repro import backend  # noqa: F401
from repro import data  # noqa: F401
from repro import utils  # noqa: F401
from repro import physics  # noqa: F401
from repro import schedule  # noqa: F401
from repro import parallel  # noqa: F401
from repro import core  # noqa: F401
from repro import runtime  # noqa: F401
from repro import baseline  # noqa: F401
from repro import perfmodel  # noqa: F401
from repro import metrics  # noqa: F401
from repro import io  # noqa: F401
from repro import api  # noqa: F401
from repro import service  # noqa: F401
from repro import experiments  # noqa: F401

from repro.core import (
    DivergenceError,
    GradientDecompositionReconstructor,
    ReconstructionResult,
)
from repro.baseline import HaloExchangeReconstructor, SerialReconstructor
from repro.physics import (
    simulate_dataset,
    scaled_pbtio3_spec,
    small_pbtio3_spec,
    large_pbtio3_spec,
)
from repro.physics.dataset import suggest_lr
from repro.perfmodel import PerformancePredictor, MachineSpec, SUMMIT
from repro.api import (
    CheckpointPolicy,
    IterationEvent,
    ReconstructionConfig,
    reconstruct,
    register_solver,
    solver_from_config,
    solver_names,
)
from repro.backend import (
    PrecisionPolicy,
    backend_names,
    register_backend,
    use_backend,
)
from repro.runtime import (
    executor_names,
    register_executor,
    resolve_executor,
)
from repro.service import JobHandle, ReconstructionService
from repro.obs import Telemetry

__all__ = [
    "__version__",
    "obs",
    "backend",
    "data",
    "utils",
    "physics",
    "schedule",
    "parallel",
    "core",
    "runtime",
    "baseline",
    "perfmodel",
    "metrics",
    "io",
    "api",
    "service",
    "experiments",
    "DivergenceError",
    "GradientDecompositionReconstructor",
    "ReconstructionResult",
    "HaloExchangeReconstructor",
    "SerialReconstructor",
    "simulate_dataset",
    "scaled_pbtio3_spec",
    "small_pbtio3_spec",
    "large_pbtio3_spec",
    "suggest_lr",
    "PerformancePredictor",
    "MachineSpec",
    "SUMMIT",
    "reconstruct",
    "ReconstructionConfig",
    "register_solver",
    "solver_from_config",
    "solver_names",
    "IterationEvent",
    "CheckpointPolicy",
    "PrecisionPolicy",
    "backend_names",
    "register_backend",
    "use_backend",
    "executor_names",
    "register_executor",
    "resolve_executor",
    "ReconstructionService",
    "JobHandle",
    "Telemetry",
]
