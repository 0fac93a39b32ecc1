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

Each transform is one call of the C++ entry point ``scipy.fft`` itself
ends in, ``scipy.fft._pocketfft.pypocketfft.c2c(a, axes, forward,
inorm, out, nthreads)``, with the last two axes, ``inorm`` 1 for
``ortho`` and the worker count from :meth:`ThreadedFFTBackend._workers_for`.
That skips ``scipy.fft``'s uarray dispatch and its per-call input,
axes and shape normalisation (8-14 us a call on a 2-vCPU x86 host,
more than the transform itself at 16 px) and returns exactly what
``scipy.fft.fft2``/``ifft2`` return: the only normalisation a backend
input can need — integer and ``float16`` arrays, which pocketfft does
not take — is done here as ``scipy.fft`` does it.
``tests/backend/test_direct_fft.py`` pins the private entry point
against ``scipy.fft.fft2``/``ifft2``.

Numerics: pocketfft's vectorized kernels reorder floating-point
operations relative to ``np.fft``, so results agree with the numpy
backend to machine epsilon but are **not bit-identical** — the parity
suite asserts eps-level agreement at ``complex128`` and keeps strict
bit-identity guarantees on the numpy backend only.
"""

from __future__ import annotations

import functools
import os
from typing import Optional

import numpy as np

from repro.backend.base import ArrayBackend, register_backend

__all__ = ["ThreadedFFTBackend"]

#: Transforms smaller than this many elements are not worth a thread
#: hand-off; pocketfft runs them on the calling thread.
_SERIAL_CUTOFF = 1 << 15

#: ``scipy.fft``'s ``inorm`` code per ``norm`` for a forward transform;
#: an inverse transform uses ``2 - code``.
_NORM_CODES = {"backward": 0, "ortho": 1, "forward": 2}


@functools.cache
def _pocketfft():
    """Import scipy's pocketfft lazily so the library (and its
    import-time registration) works on scipy-less installs."""
    from scipy.fft._pocketfft import pypocketfft

    return pypocketfft


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
            _pocketfft()
        except ImportError:  # pragma: no cover - scipy is present in CI
            return False
        return True

    # ------------------------------------------------------------------
    def fft2(self, a: np.ndarray, norm: str = "ortho") -> np.ndarray:
        return self._c2c(a, norm, True)

    def ifft2(self, a: np.ndarray, norm: str = "ortho") -> np.ndarray:
        return self._c2c(a, norm, False)

    def _c2c(self, a: np.ndarray, norm: str, forward: bool) -> np.ndarray:
        """One pocketfft call over the last two axes.  Integer and
        ``float16`` input is first widened as ``scipy.fft`` widens it
        (``float64``/``float32``); every other input goes in as is."""
        if a.dtype.char not in "fdgFDG":
            a = a.astype(np.float32 if a.dtype == np.float16 else np.float64)
        code = _NORM_CODES[norm]
        return _pocketfft().c2c(
            a, (a.ndim - 2, a.ndim - 1), forward,
            code if forward else 2 - code, None, self._workers_for(a),
        )

    def _workers_for(self, a: np.ndarray) -> int:
        """Tiny transforms stay serial (thread hand-off costs more than
        the butterfly); batches use the pool."""
        return 1 if a.size < _SERIAL_CUTOFF else self.workers

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ThreadedFFTBackend(workers={self.workers})"
