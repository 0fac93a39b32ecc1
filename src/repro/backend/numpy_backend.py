"""The ``numpy`` reference backend.

Bit-for-bit identical to calling ``np.fft.fft2``/``ifft2`` directly —
every pre-backend result is reproduced exactly — at both precisions:
since numpy 2.0 ``np.fft`` transforms ``complex64`` natively in single
precision, so the dtype-preservation contract costs nothing here.  The
threaded scipy backend adds a worker pool and faster vectorised kernels
on top and is the one to use when chasing the complex64 speedup.

The 2-D transform is the two 1-D passes ``np.fft.fft2`` performs
internally (last axis first, the second pass in place), issued straight
to the pocketfft gufuncs ``np.fft`` itself calls
(``numpy.fft._pocketfft_umath.fft``/``ifft``).  Each pass gets the
normalisation factor ``np.fft._raw_fft`` computes —
``reciprocal(sqrt(n))`` at the input's real width for ``ortho`` —
cached per ``(dtype, n, norm, direction)``, so a call pays none of
``np.fft``'s per-pass norm, axis and shape handling.  The
private gufunc and the in-place ``out=`` need **numpy >= 2.0**, the
floor this package states; ``tests/backend/test_direct_fft.py`` pins
both against ``np.fft.fft2``/``ifft2``.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.fft import _pocketfft_umath as _pfu

from repro.backend.base import ArrayBackend, register_backend

__all__ = ["NumpyBackend"]


@functools.cache
def _factor(dtype: np.dtype, n: int, norm: str, forward: bool):
    """``np.fft._raw_fft``'s normalisation factor for one pass over
    ``n`` points of a ``dtype`` array, bit for bit: an inverse pass
    swaps ``backward``/``forward``, and the factor is taken at
    ``result_type(real width, 1.0)``."""
    real = np.result_type(np.empty(0, dtype).real.dtype, 1.0)
    if norm == "ortho":
        return np.reciprocal(np.sqrt(n, dtype=real))
    if norm == ("forward" if forward else "backward"):
        return np.reciprocal(n, dtype=real)
    if norm in ("forward", "backward"):
        return 1  # a Python int, as np.fft passes: it selects the loop
    raise ValueError(
        f'Invalid norm value {norm}; should be "backward", "ortho" or '
        '"forward".'
    )


def _fft2(ufunc, a: np.ndarray, norm: str, forward: bool) -> np.ndarray:
    """The two passes of ``np.fft.fft2``/``ifft2`` over the last two
    axes: the first into a fresh array laid out like ``a`` (as
    ``np.fft`` allocates it), the second in place."""
    t = np.empty_like(a, dtype=np.result_type(a.dtype, 1j))
    ufunc(
        a, _factor(a.dtype, a.shape[-1], norm, forward),
        axes=[(-1,), (), (-1,)], out=t,
    )
    ufunc(
        t, _factor(t.dtype, t.shape[-2], norm, forward),
        axes=[(-2,), (), (-2,)], out=t,
    )
    return t


@register_backend("numpy")
class NumpyBackend(ArrayBackend):
    """Serial ``np.fft`` execution (see module docstring)."""

    def fft2(self, a: np.ndarray, norm: str = "ortho") -> np.ndarray:
        return self._match(_fft2(_pfu.fft, a, norm, True), a)

    def ifft2(self, a: np.ndarray, norm: str = "ortho") -> np.ndarray:
        return self._match(_fft2(_pfu.ifft, a, norm, False), a)

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
