"""Layout exactness of the multislice kernel, where the goldens are blind.

The kernel carries the FFT-native layout from slice to slice and only
permutes at its boundary.  That must be *bitwise* the centred recursion
of the :mod:`repro.physics.multislice` module docstring — on even and
odd windows (the goldens are all 16 px, a power of two, where even an
inexact variant would pass), on both CPU backends, at both precisions,
for scalar, single-mode-stack and mixed-state probes, per item and
batched.  The reference below is written straight from that docstring
with ``fft2c``/``ifft2c`` and an independently computed transfer
function; it shares no code with the kernel.
"""

import numpy as np
import pytest

from repro.physics.multislice import MultisliceModel
from tests.reference.kernel import cost_and_gradient
from repro.physics.propagation import FresnelPropagator
from repro.utils.fftutils import (
    fft2c,
    fft2u,
    fftfreq_grid,
    ifft2c,
    ifft2u,
    to_centred,
    to_native,
)

WINDOWS = [7, 15, 16, 24, 33]
BACKENDS = ["numpy", "threaded"]
DTYPES = ["complex128", "complex64"]
PROBES = ["scalar", "stack1", "modes2"]
N_SLICES = 3
GEOMETRY = dict(pixel_size_pm=10.0, wavelength_pm=2.508)
DZ_PM = 125.0


def assert_bitwise(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def centred_kernel(window, cdtype):
    """``H(k) = exp(-i pi lambda dz |k|^2)`` inside 2/3 Nyquist, centred."""
    ky, kx = fftfreq_grid((window, window), GEOMETRY["pixel_size_pm"])
    k2 = ky * ky + kx * kx
    kernel = np.exp(1j * (-np.pi * GEOMETRY["wavelength_pm"] * DZ_PM * k2))
    k_nyquist = 0.5 / GEOMETRY["pixel_size_pm"]
    kernel[np.sqrt(k2) > (2.0 / 3.0) * k_nyquist] = 0.0
    return kernel.astype(cdtype)


def centred_reference(model, probe, patch, measured):
    """The docstring recursion, centred throughout: ``(far_field,
    amplitude, cost, object_grad, probe_grad)`` with a leading mode axis
    on the far field and the probe gradient."""
    b, cdtype = model.backend, model.precision.complex_dtype
    kernel = centred_kernel(model.window, cdtype)
    obj = np.asarray(patch, dtype=cdtype)
    psi = np.asarray(probe, dtype=cdtype).reshape((-1,) + obj.shape[1:])
    incident = []
    for s in range(model.n_slices):
        incident.append(psi)
        phi = psi * obj[s]
        if s < model.n_slices - 1:
            psi = ifft2c(kernel * fft2c(phi, b), b)
    far_field = fft2c(phi, b)
    if len(far_field) == 1:
        amplitude = np.abs(far_field[0])
    else:
        amplitude = np.sqrt(
            np.sum(
                far_field.real * far_field.real
                + far_field.imag * far_field.imag,
                axis=0,
            )
        )
    residual = amplitude - np.asarray(measured, model.precision.real_dtype)
    cost = float(np.sum(residual * residual, dtype=np.float64))
    chi = ifft2c(residual * (far_field / (amplitude + 1e-12)), b)
    grad = np.empty_like(obj)
    for s in range(model.n_slices - 1, -1, -1):
        terms = np.conj(incident[s]) * chi
        grad[s] = terms[0] if len(terms) == 1 else np.sum(terms, axis=0)
        if s > 0:
            chi = ifft2c(
                np.conj(kernel) * fft2c(np.conj(obj[s]) * chi, b), b
            )
    return far_field, amplitude, cost, grad, np.conj(obj[0]) * chi


@pytest.fixture(params=WINDOWS)
def window(request):
    return request.param


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


@pytest.fixture(params=DTYPES)
def dtype(request):
    return request.param


@pytest.fixture
def case(window, backend, dtype):
    """A model plus a ragged batch of 3 random locations (double-width
    inputs: the kernel owns the cast to the policy's width)."""
    rng = np.random.default_rng(1000 + window)

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    model = MultisliceModel(
        window, N_SLICES, slice_thickness_pm=DZ_PM,
        backend=backend, dtype=dtype, **GEOMETRY,
    )
    base = cplx(window, window)
    probes = {
        "scalar": base,
        "stack1": base[None],
        "modes2": np.stack([base, 0.3 * cplx(window, window)]),
    }
    patches = np.exp(0.3j * rng.normal(size=(3, N_SLICES, window, window)))
    measured = np.abs(cplx(3, window, window)).astype(np.float32)
    measured[0, 0, 0] = 0.0
    return model, probes, patches, measured


class TestKernelMatchesCentredRecursion:
    @pytest.mark.parametrize("kind", PROBES)
    def test_forward(self, case, kind):
        model, probes, patches, measured = case
        far_field, amplitude, *_ = centred_reference(
            model, probes[kind], patches[0], measured[0]
        )
        expected = far_field[0] if kind == "scalar" else far_field
        assert_bitwise(model.forward(probes[kind], patches[0]), expected)
        assert_bitwise(
            model.forward_amplitude(probes[kind], patches[0]), amplitude
        )

    @pytest.mark.parametrize("kind", PROBES)
    def test_cost_and_gradient(self, case, kind):
        model, probes, patches, measured = case
        _, amplitude, cost, grad, probe_grad = centred_reference(
            model, probes[kind], patches[1], measured[1]
        )
        result = cost_and_gradient(
            model, probes[kind], patches[1], measured[1],
            keep_exit_wave=True, compute_probe_grad=True,
        )
        assert result.cost == cost
        assert_bitwise(result.object_grad, grad)
        assert_bitwise(result.exit_amplitude, amplitude)
        assert_bitwise(
            result.probe_grad,
            probe_grad[0] if kind == "scalar" else probe_grad,
        )

    @pytest.mark.parametrize("kind", PROBES)
    @pytest.mark.parametrize("picked", [[2], [0, 1, 2], [2, 0]])
    def test_cost_and_gradient_batch(self, case, kind, picked):
        """Batch 1, a full batch and a ragged, gathered (fancy-indexed,
        reordered) one: every item is bitwise its own evaluation."""
        model, probes, patches, measured = case
        result = model.cost_and_gradient_batch(
            probes[kind], patches[picked], measured[picked],
            compute_probe_grad=True,
        )
        assert result.costs.dtype == np.float64
        for b, item in enumerate(picked):
            _, _, cost, grad, probe_grad = centred_reference(
                model, probes[kind], patches[item], measured[item]
            )
            assert result.costs[b] == cost
            assert_bitwise(result.object_grads[b], grad)
            if kind == "scalar":
                assert_bitwise(result.probe_grads[b], probe_grad[0])
            else:
                assert_bitwise(result.probe_grads[:, b], probe_grad)

    @pytest.mark.parametrize("kind", PROBES)
    def test_cost_only_is_the_kernel_cost(self, case, kind):
        """``cost_only`` summarises the kernel it shares a forward half
        with: same cast of the measurement to the policy's width, same
        float64 accumulation, same bits — also at complex64."""
        model, probes, patches, measured = case
        for m in (measured[1], measured[1].astype(np.float64)):
            assert model.cost_only(probes[kind], patches[1], m) == (
                cost_and_gradient(model, probes[kind], patches[1], m).cost
            )
        with pytest.raises(ValueError, match="measurement shape"):
            model.cost_only(probes[kind], patches[1], measured[1, :-1])


class TestPropagatorLayouts:
    @pytest.fixture
    def prop(self, window, backend, dtype):
        return FresnelPropagator(
            (window, window), dz_pm=DZ_PM, backend=backend, dtype=dtype,
            **GEOMETRY,
        )

    def test_kernel_is_the_centred_transfer_function(self, prop, window):
        kernel = centred_kernel(window, prop.precision.complex_dtype)
        assert_bitwise(prop.kernel, kernel)
        assert_bitwise(prop.kernel, np.fft.fftshift(prop._native))
        assert_bitwise(prop._native_conj, np.conj(to_native(kernel)))

    def test_forward_and_adjoint_match_centred_formula(self, prop, window):
        rng = np.random.default_rng(window)
        x = rng.normal(size=(2, window, window)) + 1j * rng.normal(
            size=(2, window, window)
        )
        x = x.astype(prop.precision.complex_dtype)
        b, kernel = prop.backend, prop.kernel
        assert_bitwise(prop.forward(x), ifft2c(kernel * fft2c(x, b), b))
        assert_bitwise(
            prop.adjoint(x), ifft2c(np.conj(kernel) * fft2c(x, b), b)
        )
        # The native step is the same operator between the permutations.
        assert_bitwise(
            to_centred(prop.forward_native(to_native(x))), prop.forward(x)
        )
        assert_bitwise(
            to_centred(prop.adjoint_native(to_native(x))), prop.adjoint(x)
        )

    @pytest.mark.parametrize(
        "policy, field_dtype",
        [("complex128", np.complex64), ("complex64", np.complex128)],
    )
    def test_field_keeps_its_own_width(self, rng, policy, field_dtype):
        """The product is written into the field's spectrum, so a field
        narrower (or wider) than the policy comes back at the width it
        went in with — a complex64 field is not upcast by a complex128
        kernel."""
        prop = FresnelPropagator((16, 16), dz_pm=DZ_PM, dtype=policy, **GEOMETRY)
        x = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        x = x.astype(field_dtype)
        matched = FresnelPropagator(
            (16, 16), dz_pm=DZ_PM, dtype=np.dtype(field_dtype).name, **GEOMETRY
        )
        for name in ("forward", "adjoint"):
            out = getattr(prop, name)(x)
            assert out.dtype == field_dtype
            np.testing.assert_allclose(
                out, getattr(matched, name)(x), rtol=0, atol=1e-5
            )


class TestLayoutHelpers:
    @pytest.mark.parametrize("shape", [(7, 7), (3, 16, 16), (2, 2, 15, 33)])
    def test_permutations_are_exact_inverses(self, rng, shape):
        x = rng.normal(size=shape)
        assert_bitwise(to_centred(to_native(x)), x)
        assert_bitwise(to_native(to_centred(x)), x)
        assert to_native(x).flags.c_contiguous

    def test_centred_transforms_wrap_the_uncentred_ones(self, rng, backend):
        x = rng.normal(size=(2, 15, 24)) + 1j * rng.normal(size=(2, 15, 24))
        assert_bitwise(
            fft2c(x, backend), to_centred(fft2u(to_native(x), backend))
        )
        assert_bitwise(
            ifft2c(x, backend), to_centred(ifft2u(to_native(x), backend))
        )
