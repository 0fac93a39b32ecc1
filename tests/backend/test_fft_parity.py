"""Transform-level parity across backends and precisions.

The guarantees tested here are tiered deliberately:

* **numpy backend ≡ np.fft, bit for bit, at complex128** — this is the
  default path, and it is what makes every pre-backend result
  reproducible exactly.
* **threaded ≈ numpy at complex128 to machine epsilon** — scipy's
  pocketfft uses differently-vectorized kernels, so floating-point
  operations reorder; eps-level agreement is the physically meaningful
  (and achievable) contract.
* **complex64 stays complex64 on every backend** — the dtype-preservation
  contract (native in ``np.fft`` since numpy 2.0, the stated floor).
"""

import numpy as np
import pytest

from repro.backend import available_backend_names, get_backend
from repro.utils.fftutils import fft2c, ifft2c

AVAILABLE = [n for n in available_backend_names()]
DTYPES = [np.complex64, np.complex128]


@pytest.fixture
def field(rng):
    return (
        rng.normal(size=(3, 24, 24)) + 1j * rng.normal(size=(3, 24, 24))
    )


class TestNumpyBitIdentity:
    """The default path must reproduce raw ``np.fft`` exactly."""

    def test_fft2_bit_identical(self, field):
        b = get_backend("numpy")
        expected = np.fft.fft2(field, norm="ortho")
        out = b.fft2(field)
        assert out.dtype == np.complex128
        assert np.array_equal(
            out.view(np.float64), expected.view(np.float64)
        )

    def test_ifft2_bit_identical(self, field):
        b = get_backend("numpy")
        expected = np.fft.ifft2(field, norm="ortho")
        assert np.array_equal(
            b.ifft2(field).view(np.float64), expected.view(np.float64)
        )

    @pytest.mark.parametrize("dtype", DTYPES + [np.float64, np.float32])
    @pytest.mark.parametrize(
        "shape", [(16, 16), (7, 7), (3, 15, 33), (2, 4, 24, 24)]
    )
    def test_two_pass_transform_is_np_fft2(self, rng, shape, dtype):
        """The backend issues the 2-D transform as np.fft.fft2's own two
        1-D passes (second one in place): same bits and dtype at every
        shape and width, and the input is left untouched."""
        b = get_backend("numpy")
        x = rng.normal(size=shape)
        if np.issubdtype(dtype, np.complexfloating):
            x = x + 1j * rng.normal(size=shape)
        x = x.astype(dtype)
        for view in (x, x[..., ::-1, :]):
            before = view.copy()
            for ours, theirs in ((b.fft2, np.fft.fft2), (b.ifft2, np.fft.ifft2)):
                out, expected = ours(view), theirs(view, norm="ortho")
                assert out.dtype == expected.dtype
                assert out.tobytes() == expected.tobytes()
            assert np.array_equal(view, before)

    def test_fft2c_bit_identical_to_pre_backend_form(self, field):
        """fft2c with the default backend == the historical hard-wired
        shift/transform/shift composition, bitwise."""
        expected = np.fft.fftshift(
            np.fft.fft2(np.fft.ifftshift(field, axes=(-2, -1)), norm="ortho"),
            axes=(-2, -1),
        )
        assert np.array_equal(
            fft2c(field, backend="numpy").view(np.float64),
            expected.view(np.float64),
        )


class TestThreadedParity:
    def test_matches_numpy_at_eps_level(self, field):
        th = get_backend("threaded")
        npb = get_backend("numpy")
        scale = np.abs(npb.fft2(field)).max()
        assert np.abs(th.fft2(field) - npb.fft2(field)).max() < 1e-12 * max(scale, 1.0)
        assert np.abs(th.ifft2(field) - npb.ifft2(field)).max() < 1e-12 * max(scale, 1.0)

    def test_pool_path_is_bit_identical_to_one_worker(self, rng):
        """At and above the cutoff the transform runs on the pool; it
        must give the same bits as the serial path."""
        from repro.backend import ThreadedFFTBackend

        serial, pooled = ThreadedFFTBackend(workers=1), ThreadedFFTBackend(workers=2)
        for shape in [(2, 16, 32, 32), (1, 16, 64, 64)]:
            for dtype in (np.complex64, np.complex128):
                x = (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(dtype)
                for one, two in ((serial.fft2, pooled.fft2), (serial.ifft2, pooled.ifft2)):
                    out = two(x)
                    assert out.dtype == dtype
                    assert np.array_equal(out, one(x))

    def test_worker_count_decided_per_call(self, monkeypatch):
        from scipy.fft._pocketfft import pypocketfft

        from repro.backend import ThreadedFFTBackend

        seen = []
        monkeypatch.setattr(
            pypocketfft, "c2c",
            lambda a, axes, forward, inorm, out, nthreads: seen.append(
                nthreads
            ),
        )
        b = ThreadedFFTBackend(workers=3)
        b.fft2(np.ones((2, 16, 32, 31), dtype=np.complex64))  # 31744 elements
        b.fft2(np.ones((2, 16, 32, 32), dtype=np.complex64))  # 32768
        b.fft2(np.ones((4, 4), dtype=np.complex64))
        assert seen == [1, 3, 1]

    def test_worker_override_validated(self):
        from repro.backend import ThreadedFFTBackend

        with pytest.raises(ValueError, match="workers"):
            ThreadedFFTBackend(workers=0)
        assert ThreadedFFTBackend(workers=3).workers == 3


class TestDtypePreservation:
    @pytest.mark.parametrize("backend", AVAILABLE)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_complex_in_complex_out(self, field, backend, dtype):
        b = get_backend(backend)
        x = field.astype(dtype)
        assert b.fft2(x).dtype == dtype
        assert b.ifft2(x).dtype == dtype

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_float32_promotes_to_complex64(self, rng, backend):
        b = get_backend(backend)
        x = rng.normal(size=(8, 8)).astype(np.float32)
        assert b.fft2(x).dtype == np.complex64

    def test_single_precision_values_close_to_double(self, field):
        b = get_backend("numpy")
        lo = b.fft2(field.astype(np.complex64))
        hi = b.fft2(field)
        np.testing.assert_allclose(lo, hi, atol=1e-5)


class TestCenteredTransforms:
    """fft2c/ifft2c invariants hold on every available backend at both
    precisions (single precision at single-precision tolerance)."""

    @pytest.mark.parametrize("backend", AVAILABLE)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_roundtrip(self, field, backend, dtype):
        x = field.astype(dtype)
        atol = 1e-12 if dtype == np.complex128 else 1e-5
        out = ifft2c(fft2c(x, backend), backend)
        assert out.dtype == dtype
        np.testing.assert_allclose(out, x, atol=atol)

    @pytest.mark.parametrize("backend", AVAILABLE)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_unitarity(self, field, backend, dtype):
        x = field.astype(dtype)
        rtol = 1e-12 if dtype == np.complex128 else 1e-5
        energy_in = float(np.sum(np.abs(x) ** 2))
        energy_out = float(np.sum(np.abs(fft2c(x, backend)) ** 2))
        assert energy_out == pytest.approx(energy_in, rel=rtol)

    @pytest.mark.parametrize("backend", AVAILABLE)
    def test_adjoint_identity(self, rng, backend):
        x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        y = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        lhs = np.vdot(fft2c(x, backend), y)
        rhs = np.vdot(x, ifft2c(y, backend))
        assert lhs == pytest.approx(rhs)
