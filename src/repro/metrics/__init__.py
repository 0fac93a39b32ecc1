"""Evaluation metrics for reconstructions and scaling studies.

* :mod:`repro.metrics.seam` — the tile-border seam-artifact metric behind
  the Fig. 8 comparison.
* :mod:`repro.metrics.image_quality` — RMSE / PSNR / phase-aligned complex
  correlation against ground truth.
* :mod:`repro.metrics.convergence` — cost-history summaries (Fig. 9).
* :mod:`repro.metrics.scaling` — strong-scaling efficiency and speedup
  (Tables II/III, Fig. 7a).
"""

from repro.metrics.seam import seam_metric, boundary_profile
from repro.metrics.image_quality import (
    rmse,
    psnr,
    complex_correlation,
    phase_rmse,
)
from repro.metrics.convergence import (
    relative_decrease,
    auc_cost,
)
from repro.metrics.scaling import (
    speedups,
    strong_scaling_efficiency,
)
from repro.metrics.frc import (
    FrcCurve,
    fourier_ring_correlation,
    resolution_cutoff,
)

__all__ = [
    "seam_metric",
    "boundary_profile",
    "rmse",
    "psnr",
    "complex_correlation",
    "phase_rmse",
    "relative_decrease",
    "auc_cost",
    "speedups",
    "strong_scaling_efficiency",
    "FrcCurve",
    "fourier_ring_correlation",
    "resolution_cutoff",
]
