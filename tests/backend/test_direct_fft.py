"""The backends call the FFT libraries' private C entry points directly:
``numpy.fft._pocketfft_umath.fft``/``ifft`` (the ``numpy`` backend) and
``scipy.fft._pocketfft.pypocketfft.c2c`` (``threaded``), and the layout
permutations are one cached ``take``.  Each must stay *bitwise* what the
public API it replaces returns — ``np.fft.fft2``/``ifft2(norm="ortho")``,
``scipy.fft.fft2``/``ifft2(norm="ortho")``, ``np.fft.ifftshift`` /
``fftshift`` — at both precisions, every window parity, the kernel's
batch ranks and strided input.

This file is the one that fails when a numpy or scipy release moves or
changes either private module.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.fft

from repro.backend import NumpyBackend, ThreadedFFTBackend
from repro.utils.fftutils import to_centred, to_native

SIZES = [7, 15, 16, 24, 33, 64]
# 2-D, the kernel's (B, w, w) stack and its (M, B, w, w) mixed-state view.
LEADS = [(), (3,), (2, 3)]
DTYPES = [np.complex64, np.complex128, np.float64]
LAYOUTS = ["contiguous", "transposed", "strided"]


def _input(rng, lead, w, dtype, layout):
    shape = (*lead, 2 * w if layout == "strided" else w, w)
    a = rng.normal(size=shape)
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.normal(size=shape)
    a = a.astype(dtype)
    if layout == "transposed":
        a = a.swapaxes(-2, -1)
    elif layout == "strided":
        a = a[..., ::2, :]
    assert a.flags.c_contiguous == (layout == "contiguous")
    return a


def _numpy_reference(fn):
    return lambda a: fn(a, norm="ortho")


def _scipy_reference(fn):
    return lambda a: fn(a, norm="ortho", axes=(-2, -1))


CASES = {
    "numpy.fft2": (NumpyBackend().fft2, _numpy_reference(np.fft.fft2)),
    "numpy.ifft2": (NumpyBackend().ifft2, _numpy_reference(np.fft.ifft2)),
    "threaded.fft2": (
        ThreadedFFTBackend(workers=2).fft2, _scipy_reference(scipy.fft.fft2)
    ),
    "threaded.ifft2": (
        ThreadedFFTBackend(workers=2).ifft2,
        _scipy_reference(scipy.fft.ifft2),
    ),
}


def test_private_entry_points_exist():
    from numpy.fft import _pocketfft_umath
    from scipy.fft._pocketfft import pypocketfft

    for ufunc in (_pocketfft_umath.fft, _pocketfft_umath.ifft):
        assert isinstance(ufunc, np.ufunc)
        assert (ufunc.nin, ufunc.nout) == (2, 1)  # (field, factor) -> out
    assert callable(pypocketfft.c2c)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("lead", LEADS, ids=str)
@pytest.mark.parametrize("w", SIZES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_transform_is_bitwise_the_public_api(
    rng, case, w, lead, dtype, layout
):
    ours, reference = CASES[case]
    a = _input(rng, lead, w, dtype, layout)
    got, expected = ours(a), reference(a)
    assert got.dtype == expected.dtype
    assert got.shape == a.shape
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("lead", LEADS, ids=str)
@pytest.mark.parametrize("w", SIZES)
def test_permutation_is_bitwise_the_shift(rng, w, lead, dtype, layout):
    a = _input(rng, lead, w, dtype, layout)
    for ours, reference in (
        (to_native, np.fft.ifftshift), (to_centred, np.fft.fftshift),
    ):
        got = ours(a)
        assert got.dtype == a.dtype
        assert got.flags.c_contiguous
        np.testing.assert_array_equal(got, reference(a, axes=(-2, -1)))


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1), (6, 9), (9, 6)])
def test_permutation_of_rectangular_planes(rng, shape):
    a = rng.normal(size=(2, *shape))
    np.testing.assert_array_equal(
        to_native(a), np.fft.ifftshift(a, axes=(-2, -1))
    )
    np.testing.assert_array_equal(
        to_centred(a), np.fft.fftshift(a, axes=(-2, -1))
    )
    np.testing.assert_array_equal(to_centred(to_native(a)), a)


def test_cached_permutation_is_read_only():
    from repro.utils.fftutils import _permutation

    index = _permutation(15, 16, False)
    assert index is _permutation(15, 16, False)
    assert not index.flags.writeable
