"""repro.api — config-driven reconstruction with a unified solver registry.

The pieces (one module each):

* :class:`ReconstructionConfig` — frozen, JSON-round-trippable run
  description (solver name + solver params + run params).
* :func:`register_solver` / :func:`solver_from_config` /
  :func:`solver_names` — the registry that all dispatch (CLI,
  ``repro.reconstruct``, experiments) resolves through; ``"gd"``,
  ``"hve"`` and ``"serial"`` are registered by :mod:`repro.api.solvers`,
  third-party solvers register the same way.
* :func:`reconstruct` — the single entry point running any config.
* :class:`IterationEvent` / :class:`CheckpointPolicy` — the structured
  observer API.

Minimal use::

    import repro
    from repro.api import ReconstructionConfig

    config = ReconstructionConfig(
        solver="gd",
        solver_params={"n_ranks": 9, "iterations": 10, "lr": 0.02},
    )
    result = repro.reconstruct(dataset, config)
"""

from repro.api.config import ReconstructionConfig
from repro.api.registry import (
    Solver,
    SolverCapabilityError,
    UnknownSolverError,
    get_solver,
    register_solver,
    solver_from_config,
    solver_names,
    unregister_solver,
)
from repro.api import solvers  # noqa: F401  (registers gd/hve/serial)
from repro.api.solvers import (
    GradientDecompositionSolver,
    HaloExchangeSolver,
    SerialSolver,
)
from repro.api.events import (
    CheckpointPolicy,
    IterationEvent,
    Observer,
)
from repro.api.reconstruct import (
    RUN_PARAM_KEYS,
    ResumeMismatchError,
    reconstruct,
)
from repro.api.streaming import run_streaming

__all__ = [
    "ReconstructionConfig",
    "Solver",
    "UnknownSolverError",
    "SolverCapabilityError",
    "register_solver",
    "unregister_solver",
    "solver_names",
    "get_solver",
    "solver_from_config",
    "GradientDecompositionSolver",
    "HaloExchangeSolver",
    "SerialSolver",
    "IterationEvent",
    "Observer",
    "CheckpointPolicy",
    "reconstruct",
    "ResumeMismatchError",
    "RUN_PARAM_KEYS",
    "run_streaming",
]
