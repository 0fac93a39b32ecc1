"""The paper's primary contribution: gradient-decomposed reconstruction.

* :mod:`repro.core.decomposition` — tile grid, halos, probe assignment,
  overlap geometry (paper Sec. III).
* :mod:`repro.core.passes` — forward/backward directional gradient passes
  and the APPP / all-reduce / barrier planners (Secs. IV-V).
* :mod:`repro.core.engine` — the numeric interpreter executing schedules on
  real arrays through the virtual communicator.
* :mod:`repro.core.reconstructor` — the public
  :class:`GradientDecompositionReconstructor` (Alg. 1) and the run
  driver (``run_plan`` / ``run_session``) every solver iterates on.
* :mod:`repro.core.stitching` — halo discard + tile stitching.
* :mod:`repro.core.observers` — the :class:`IterationEvent` observer API
  shared by every reconstructor (re-exported via :mod:`repro.api`).
"""

from repro.core.decomposition import (
    Decomposition,
    RankTile,
    decompose_gradient,
    decompose_halo_exchange,
    ScalabilityError,
)
from repro.core.passes import (
    build_appp_passes,
    build_barrier_passes,
    build_allreduce_sync,
    build_neighbor_exchanges,
)
from repro.core.engine import NumericEngine
from repro.core.observers import IterationEvent, Observer, dispatch
from repro.core.reconstructor import (
    DivergenceError,
    GradientDecompositionReconstructor,
    LegFailedError,
    ReconstructionResult,
)
from repro.core.stitching import stitch

__all__ = [
    "Decomposition",
    "RankTile",
    "decompose_gradient",
    "decompose_halo_exchange",
    "ScalabilityError",
    "build_appp_passes",
    "build_barrier_passes",
    "build_allreduce_sync",
    "build_neighbor_exchanges",
    "NumericEngine",
    "IterationEvent",
    "Observer",
    "dispatch",
    "DivergenceError",
    "GradientDecompositionReconstructor",
    "LegFailedError",
    "ReconstructionResult",
    "stitch",
]
