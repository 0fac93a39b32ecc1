"""The ``threaded`` backend: ``scipy.fft`` with a worker pool.

``scipy.fft``'s pocketfft gives three things ``np.fft`` cannot:

* **native single precision** — ``complex64`` input transforms in
  ``complex64`` (half the memory traffic, roughly half the flop width),
  which is the whole point of the :class:`~repro.backend.PrecisionPolicy`
  fast path;
* **a worker pool** — batched probe-window transforms (the
  ``(n_slices, window, window)`` stacks of the multislice sweep) split
  across ``workers`` threads;
* **measurably faster kernels** even serially (vectorized pocketfft).

scipy's pocketfft caches twiddle factors internally per shape, so the
backend holds no state beyond its worker count: each call decides
whether the transform is large enough to hand to the pool.

Numerics: pocketfft's vectorized kernels reorder floating-point
operations relative to ``np.fft``, so results agree with the numpy
backend to machine epsilon but are **not bit-identical** — the parity
suite asserts eps-level agreement at ``complex128`` and keeps strict
bit-identity guarantees on the numpy backend only.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from repro.backend.base import ArrayBackend, register_backend

__all__ = ["ThreadedFFTBackend"]

#: Transforms smaller than this many elements are not worth a thread
#: hand-off; pocketfft runs them on the calling thread.
_SERIAL_CUTOFF = 1 << 15


def _scipy_fft():
    """Import ``scipy.fft`` lazily so the library (and its import-time
    registration) works on scipy-less installs."""
    import scipy.fft

    return scipy.fft


@register_backend("threaded")
class ThreadedFFTBackend(ArrayBackend):
    """Multi-worker ``scipy.fft`` execution.

    Parameters
    ----------
    workers:
        Worker-pool width for batched transforms; defaults to the CPU
        count (capped at 8 — pocketfft's batch parallelism stops paying
        beyond that for probe-window sizes).
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers <= 0:
            raise ValueError("workers must be positive")
        self.workers = (
            workers
            if workers is not None
            else max(1, min(os.cpu_count() or 1, 8))
        )

    @classmethod
    def available(cls) -> bool:
        try:
            _scipy_fft()
        except ImportError:  # pragma: no cover - scipy is present in CI
            return False
        return True

    # ------------------------------------------------------------------
    def fft2(self, a: np.ndarray, norm: str = "ortho") -> np.ndarray:
        return _scipy_fft().fft2(
            a, norm=norm, axes=(-2, -1), workers=self._workers_for(a)
        )

    def ifft2(self, a: np.ndarray, norm: str = "ortho") -> np.ndarray:
        return _scipy_fft().ifft2(
            a, norm=norm, axes=(-2, -1), workers=self._workers_for(a)
        )

    def _workers_for(self, a: np.ndarray) -> int:
        """Tiny transforms stay serial (thread hand-off costs more than
        the butterfly); batches use the pool."""
        return 1 if a.size < _SERIAL_CUTOFF else self.workers

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ThreadedFFTBackend(workers={self.workers})"
