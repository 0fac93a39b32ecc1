"""The ``numpy`` reference backend.

Bit-for-bit identical to calling ``np.fft.fft2``/``ifft2`` directly —
every pre-backend result is reproduced exactly — at both precisions:
since numpy 2.0 ``np.fft`` transforms ``complex64`` natively in single
precision, so the dtype-preservation contract costs nothing here.  The
threaded scipy backend adds a worker pool and faster vectorised kernels
on top and is the one to use when chasing the complex64 speedup.

The 2-D transform is issued as the two 1-D passes ``np.fft.fft2``
performs internally (last axis first, the second pass in place), which
skips its per-call argument handling and one allocation.  The in-place
``out=`` needs **numpy >= 2.0**, the floor this package states.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import ArrayBackend, register_backend

__all__ = ["NumpyBackend"]


@register_backend("numpy")
class NumpyBackend(ArrayBackend):
    """Serial ``np.fft`` execution (see module docstring)."""

    def fft2(self, a: np.ndarray, norm: str = "ortho") -> np.ndarray:
        t = np.fft.fft(a, axis=-1, norm=norm)
        return self._match(np.fft.fft(t, axis=-2, norm=norm, out=t), a)

    def ifft2(self, a: np.ndarray, norm: str = "ortho") -> np.ndarray:
        t = np.fft.ifft(a, axis=-1, norm=norm)
        return self._match(np.fft.ifft(t, axis=-2, norm=norm, out=t), a)

    @staticmethod
    def _match(out: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Enforce the dtype-preservation contract.  Complex input comes
        back from ``np.fft`` at its own width untouched (bit-identity!);
        only an input ``np.fft`` transforms at a third width (long
        double) pays a cast."""
        target = ArrayBackend.complex_dtype_of(a)
        if out.dtype == target:
            return out
        return out.astype(target)
