"""Performance and memory models at the paper's full scale.

The numeric engine validates the algorithms at tractable sizes; this
package extrapolates to Summit scale (Tables II/III, Fig. 7) by combining

* the **exact full-size decomposition geometry** (probe assignment, halo
  rectangles, overlap regions — cheap to compute even at 4158 ranks),
* an **analytic memory model** cross-validated against the numeric
  engine's measured allocations,
* a **calibrated cost model** (FFT flop counts, memory-pressure factor,
  per-rank speed jitter, effective MPI bandwidth) feeding the same
  discrete-event simulation of the same schedules the numeric engine runs.

Calibration constants are documented in :mod:`repro.perfmodel.machine`.
The fidelity contract is the *shape* of the paper's curves (who scales,
where the baseline stops), not absolute numbers.
"""

from repro.perfmodel.machine import MachineSpec, SUMMIT
from repro.perfmodel.cost_model import SummitCostModel
from repro.perfmodel.memory_model import MemoryModel, MemoryBreakdown
from repro.perfmodel.predictor import (
    PerformancePredictor,
    ScalingRow,
    NA,
)

__all__ = [
    "MachineSpec",
    "SUMMIT",
    "SummitCostModel",
    "MemoryModel",
    "MemoryBreakdown",
    "PerformancePredictor",
    "ScalingRow",
    "NA",
]
