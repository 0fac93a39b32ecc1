"""The multislice forward operator and its adjoint gradient.

The finite-difference gradient checks here are the numerical foundation of
the whole reproduction: every distributed algorithm consumes these
gradients.
"""

import numpy as np
import pytest

from repro.physics.multislice import MultisliceModel
from repro.physics.probe import ProbeSpec, make_probe
from tests.reference.kernel import cost_and_gradient, probe_gradient


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(42)
    n, slices = 12, 3
    model = MultisliceModel(
        window=n,
        n_slices=slices,
        pixel_size_pm=10.0,
        wavelength_pm=2.508,
        slice_thickness_pm=125.0,
    )
    probe = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    probe /= np.sqrt(np.sum(np.abs(probe) ** 2))
    obj = np.exp(1j * 0.3 * rng.normal(size=(slices, n, n)))
    target_obj = obj * np.exp(1j * 0.15 * rng.normal(size=(slices, n, n)))
    measured = model.forward_amplitude(probe, target_obj)
    return model, probe, obj, measured, rng


class TestForward:
    def test_output_shape(self, setup):
        model, probe, obj, *_ = setup
        assert model.forward(probe, obj).shape == (12, 12)

    def test_vacuum_object_passes_probe(self, setup):
        """O == 1 everywhere: the far field is just FFT of the propagated
        probe, so its total intensity equals the probe's."""
        model, probe, *_ = setup
        vacuum = np.ones((model.n_slices, 12, 12), dtype=complex)
        far = model.forward(probe, vacuum)
        # Band-limited propagation can only remove energy; a white-noise
        # probe keeps roughly the in-band fraction (~pi/9 of the square).
        assert np.sum(np.abs(far) ** 2) <= 1.0 + 1e-9
        assert np.sum(np.abs(far) ** 2) > 0.2

    def test_cost_zero_at_ground_truth(self, setup):
        model, probe, obj, measured, rng = setup
        target = obj * np.exp(
            1j * 0.15 * np.random.default_rng(42).normal(size=obj.shape)
        )
        # measured was generated from a specific target; evaluating cost at
        # any object that reproduces |Psi| gives ~0; here check self-cost.
        amp = model.forward_amplitude(probe, obj)
        assert model.cost_only(probe, obj, amp) == pytest.approx(0.0, abs=1e-18)

    def test_cost_positive_off_truth(self, setup):
        model, probe, obj, measured, _ = setup
        assert model.cost_only(probe, obj, measured) > 0

    def test_shape_validation(self, setup):
        model, probe, obj, measured, _ = setup
        with pytest.raises(ValueError):
            model.forward(probe, obj[:, :6, :6])
        with pytest.raises(ValueError):
            cost_and_gradient(model, probe, obj, measured[:6, :6])

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            MultisliceModel(0, 3, 10.0, 2.5, 125.0)
        with pytest.raises(ValueError):
            MultisliceModel(8, 0, 10.0, 2.5, 125.0)


class TestGradient:
    def test_gradient_shape_and_cost(self, setup):
        model, probe, obj, measured, _ = setup
        res = cost_and_gradient(model, probe, obj, measured)
        assert res.object_grad.shape == obj.shape
        assert res.cost == pytest.approx(
            model.cost_only(probe, obj, measured), rel=1e-12
        )

    def test_finite_difference_object_gradient(self, setup):
        """The definitive correctness check (Wirtinger calculus):
        directional derivative along d is 2*Re(grad * conj(d))."""
        model, probe, obj, measured, _ = setup
        res = cost_and_gradient(model, probe, obj, measured)
        g = res.object_grad
        rng = np.random.default_rng(7)
        eps = 1e-6
        for _ in range(10):
            s = rng.integers(model.n_slices)
            r = rng.integers(model.window)
            c = rng.integers(model.window)
            for direction in (1.0, 1j):
                plus = obj.copy()
                plus[s, r, c] += eps * direction
                minus = obj.copy()
                minus[s, r, c] -= eps * direction
                fd = (
                    model.cost_only(probe, plus, measured)
                    - model.cost_only(probe, minus, measured)
                ) / (2 * eps)
                analytic = 2 * np.real(g[s, r, c] * np.conj(direction))
                assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-10)

    def test_gradient_zero_at_optimum(self, setup):
        """At a perfect data fit the residual vanishes, so must the
        gradient."""
        model, probe, obj, *_ = setup
        amp = model.forward_amplitude(probe, obj)
        res = cost_and_gradient(model, probe, obj, amp)
        assert np.abs(res.object_grad).max() == pytest.approx(0.0, abs=1e-10)

    def test_descent_direction(self, setup):
        """A small step against the gradient decreases the cost."""
        model, probe, obj, measured, _ = setup
        res = cost_and_gradient(model, probe, obj, measured)
        step = 0.05 / max(np.abs(res.object_grad).max(), 1e-12)
        better = obj - step * res.object_grad
        assert model.cost_only(probe, better, measured) < res.cost

    def test_keep_exit_wave(self, setup):
        model, probe, obj, measured, _ = setup
        res = cost_and_gradient(
            model, probe, obj, measured, keep_exit_wave=True
        )
        assert res.exit_amplitude is not None
        np.testing.assert_allclose(
            res.exit_amplitude, model.forward_amplitude(probe, obj)
        )

    def test_finite_difference_probe_gradient(self, setup):
        model, probe, obj, measured, _ = setup
        g = probe_gradient(model, probe, obj, measured)
        rng = np.random.default_rng(11)
        eps = 1e-6
        for _ in range(6):
            r = rng.integers(model.window)
            c = rng.integers(model.window)
            for direction in (1.0, 1j):
                plus = probe.copy()
                plus[r, c] += eps * direction
                minus = probe.copy()
                minus[r, c] -= eps * direction
                fd = (
                    model.cost_only(plus, obj, measured)
                    - model.cost_only(minus, obj, measured)
                ) / (2 * eps)
                analytic = 2 * np.real(g[r, c] * np.conj(direction))
                assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-10)


class TestSingleSlice:
    """n_slices=1 degenerates to classic 2-D ptychography (no propagation)."""

    def test_single_slice_forward(self):
        rng = np.random.default_rng(3)
        model = MultisliceModel(8, 1, 10.0, 2.508, 125.0)
        probe = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        obj = np.exp(1j * rng.normal(size=(1, 8, 8)))
        far = model.forward(probe, obj)
        from repro.utils.fftutils import fft2c

        np.testing.assert_allclose(far, fft2c(probe * obj[0]), atol=1e-12)

    def test_single_slice_gradient_closed_form(self):
        """With one slice, grad = conj(psi) * IFFT(residual * phase)."""
        rng = np.random.default_rng(4)
        model = MultisliceModel(8, 1, 10.0, 2.508, 125.0)
        probe = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        obj = np.exp(1j * 0.2 * rng.normal(size=(1, 8, 8)))
        measured = np.abs(
            model.forward(probe, obj * np.exp(1j * 0.1))
        ) + 0.1 * rng.random((8, 8))
        res = cost_and_gradient(model, probe, obj, measured)

        from repro.utils.fftutils import fft2c, ifft2c

        far = fft2c(probe * obj[0])
        amp = np.abs(far)
        chi = ifft2c((amp - measured) * far / (amp + 1e-12))
        np.testing.assert_allclose(
            res.object_grad[0], np.conj(probe) * chi, atol=1e-10
        )


class TestFlops:
    def test_flops_positive_and_monotone(self):
        small = MultisliceModel(8, 2, 10.0, 2.5, 125.0).flops_per_probe()
        large = MultisliceModel(16, 2, 10.0, 2.5, 125.0).flops_per_probe()
        deeper = MultisliceModel(8, 4, 10.0, 2.5, 125.0).flops_per_probe()
        assert 0 < small < large
        assert small < deeper

    def test_flops_match_cost_model_formula(self):
        from repro.perfmodel.cost_model import multislice_flops

        model = MultisliceModel(16, 5, 10.0, 2.5, 125.0)
        assert model.flops_per_probe() == pytest.approx(
            multislice_flops(16, 5)
        )
