"""Cost-history summaries for convergence studies (paper Fig. 9)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["relative_decrease", "auc_cost"]


def _check_history(history: Sequence[float]) -> np.ndarray:
    arr = np.asarray(history, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("history must be a non-empty 1-D sequence")
    return arr


def relative_decrease(history: Sequence[float]) -> float:
    """``final / initial`` cost ratio (lower = better convergence)."""
    arr = _check_history(history)
    if arr[0] == 0:
        return 0.0 if arr[-1] == 0 else float("inf")
    return float(arr[-1] / arr[0])


def auc_cost(history: Sequence[float]) -> float:
    """Area under the (normalized) cost curve — a single-number
    convergence-speed summary robust to final-value ties."""
    arr = _check_history(history)
    if arr[0] == 0:
        return 0.0
    return float(np.trapezoid(arr / arr[0]))
