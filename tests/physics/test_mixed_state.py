"""Mixed-state probe primitives and the multislice mode dispatch.

Two contracts guarded here:

1. **M=1 bit-identity** — a ``(1, w, w)`` stack (or a legacy 2-D probe)
   must take the scalar code path *verbatim*: same cost bits, same
   gradient bytes, orthogonalization an explicit identity.  Every layer
   above (engine, solvers, goldens) leans on this.
2. **Mode-stack algebra** — ``orthogonalize_modes`` returns an
   energy-ordered, pairwise-orthogonal, intensity-preserving stack, and
   ``make_mode_stack`` is a deterministic, power-normalized expansion.
   The hypothesis properties are derandomized (reproducible CI runs).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.physics.multislice import MultisliceModel
from tests.reference.kernel import cost_and_gradient
from repro.physics.probe import (
    ProbeSpec,
    as_mode_stack,
    make_mode_stack,
    make_probe,
    mode_powers,
    orthogonalize_modes,
)

WINDOW = 16


@pytest.fixture(scope="module")
def base_probe():
    return make_probe(ProbeSpec(window=WINDOW, pixel_size_pm=10.0)).array


@pytest.fixture(scope="module")
def model():
    return MultisliceModel(
        window=WINDOW,
        n_slices=2,
        pixel_size_pm=10.0,
        wavelength_pm=2.5,
        slice_thickness_pm=1000.0,
    )


@pytest.fixture(scope="module")
def object_patch(model):
    rng = np.random.default_rng(7)
    shape = (2, WINDOW, WINDOW)
    phase = rng.uniform(-0.2, 0.2, size=shape)
    return np.exp(1j * phase).astype(np.complex128)


@pytest.fixture(scope="module")
def measured(model, base_probe, object_patch):
    """A measurement the scalar model does *not* fit exactly (so
    gradients are non-trivial): forward amplitude of a perturbed patch."""
    rng = np.random.default_rng(8)
    perturbed = object_patch * np.exp(
        1j * rng.uniform(-0.1, 0.1, size=object_patch.shape)
    )
    return model.forward_amplitude(base_probe, perturbed)


# ----------------------------------------------------------------------
# Stack plumbing
# ----------------------------------------------------------------------
class TestStackShapes:
    def test_as_mode_stack_reshapes_2d(self, base_probe):
        stack = as_mode_stack(base_probe)
        assert stack.shape == (1, WINDOW, WINDOW)
        # A view, not a copy — legacy probes carry zero overhead.
        assert stack.base is base_probe or np.shares_memory(
            stack, base_probe
        )

    def test_as_mode_stack_passes_3d_through(self, base_probe):
        stack = make_mode_stack(base_probe, 3)
        assert as_mode_stack(stack) is stack

    def test_as_mode_stack_rejects_other_ranks(self):
        with pytest.raises(ValueError, match="probe must be"):
            as_mode_stack(np.zeros(4, dtype=complex))
        with pytest.raises(ValueError, match="probe must be"):
            as_mode_stack(np.zeros((2, 2, 4, 4), dtype=complex))

    def test_mode_powers_matches_direct_sum(self, base_probe):
        stack = make_mode_stack(base_probe, 3)
        powers = mode_powers(stack)
        expected = np.array(
            [np.sum(np.abs(m) ** 2) for m in stack]
        )
        np.testing.assert_allclose(powers, expected, rtol=1e-12)


class TestMakeModeStack:
    def test_deterministic(self, base_probe):
        a = make_mode_stack(base_probe, 4)
        b = make_mode_stack(base_probe, 4)
        assert np.array_equal(a, b)

    def test_mode0_is_base_direction(self, base_probe):
        stack = make_mode_stack(base_probe, 3)
        # Mode 0 is the base probe scaled to its weight share.
        scale = np.sqrt(
            mode_powers(stack)[0] / np.sum(np.abs(base_probe) ** 2)
        )
        np.testing.assert_allclose(
            stack[0], base_probe * scale, atol=1e-12
        )

    def test_total_intensity_preserved(self, base_probe):
        base_power = float(np.sum(np.abs(base_probe) ** 2))
        for m in (1, 2, 5):
            stack = make_mode_stack(base_probe, m)
            np.testing.assert_allclose(
                float(mode_powers(stack).sum()), base_power, rtol=1e-12
            )

    def test_modes_orthogonal_by_construction(self, base_probe):
        stack = make_mode_stack(base_probe, 4)
        flat = stack.reshape(4, -1)
        gram = flat @ flat.conj().T
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-10

    def test_powers_decay_geometrically(self, base_probe):
        stack = make_mode_stack(base_probe, 4, power_ratio=0.25)
        powers = mode_powers(stack)
        np.testing.assert_allclose(
            powers[1:] / powers[:-1], 0.25, rtol=1e-10
        )

    def test_validation(self, base_probe):
        with pytest.raises(ValueError, match="n_modes"):
            make_mode_stack(base_probe, 0)
        with pytest.raises(ValueError, match="power_ratio"):
            make_mode_stack(base_probe, 2, power_ratio=1.0)
        with pytest.raises(ValueError, match="square 2-D"):
            make_mode_stack(np.zeros((2, 4, 4), dtype=complex), 2)


# ----------------------------------------------------------------------
# M=1 bit-identity through the model
# ----------------------------------------------------------------------
class TestSingleModeBitIdentity:
    def test_orthogonalize_single_mode_is_identity(self, base_probe):
        stack = base_probe.reshape(1, WINDOW, WINDOW)
        assert orthogonalize_modes(stack) is stack
        assert orthogonalize_modes(base_probe) is base_probe

    def test_cost_and_gradient_dispatch(
        self, model, base_probe, object_patch, measured
    ):
        scalar = cost_and_gradient(
            model, base_probe, object_patch, measured, compute_probe_grad=True
        )
        stacked = cost_and_gradient(
            model, base_probe.reshape(1, WINDOW, WINDOW),
            object_patch,
            measured,
            compute_probe_grad=True,
        )
        assert stacked.cost == scalar.cost
        assert np.array_equal(stacked.object_grad, scalar.object_grad)
        assert stacked.probe_grad.shape == (1, WINDOW, WINDOW)
        assert np.array_equal(stacked.probe_grad[0], scalar.probe_grad)

    def test_batch_dispatch(self, model, base_probe, object_patch, measured):
        patches = np.stack([object_patch, object_patch])
        measured_b = np.stack([measured, measured])
        scalar = model.cost_and_gradient_batch(
            base_probe, patches, measured_b, compute_probe_grad=True
        )
        stacked = model.cost_and_gradient_batch(
            base_probe.reshape(1, WINDOW, WINDOW),
            patches,
            measured_b,
            compute_probe_grad=True,
        )
        assert np.array_equal(stacked.costs, scalar.costs)
        assert np.array_equal(stacked.object_grads, scalar.object_grads)
        assert stacked.probe_grads.shape == (1, 2, WINDOW, WINDOW)
        assert np.array_equal(stacked.probe_grads[0], scalar.probe_grads)

    def test_forward_amplitude_dispatch(
        self, model, base_probe, object_patch
    ):
        scalar = model.forward_amplitude(base_probe, object_patch)
        stacked = model.forward_amplitude(
            base_probe.reshape(1, WINDOW, WINDOW), object_patch
        )
        assert np.array_equal(stacked, scalar)


# ----------------------------------------------------------------------
# Multi-mode model semantics
# ----------------------------------------------------------------------
class TestMultiModeModel:
    def test_amplitude_is_incoherent_sum(
        self, model, base_probe, object_patch
    ):
        stack = make_mode_stack(base_probe, 3)
        amp = model.forward_amplitude(stack, object_patch)
        per_mode = np.stack(
            [model.forward(m, object_patch) for m in stack]
        )
        expected = np.sqrt(np.sum(np.abs(per_mode) ** 2, axis=0))
        np.testing.assert_allclose(amp, expected, rtol=1e-12)

    def test_gradient_matches_finite_difference(
        self, model, base_probe, object_patch, measured
    ):
        stack = make_mode_stack(base_probe, 2)
        result = cost_and_gradient(
            model, stack, object_patch, measured, compute_probe_grad=True
        )
        rng = np.random.default_rng(11)
        eps = 1e-7

        # Object direction: f(x + eps*d) - f(x) ≈ 2*eps*Re<grad, d>.
        d_obj = rng.standard_normal(
            object_patch.shape
        ) + 1j * rng.standard_normal(object_patch.shape)
        f0 = result.cost
        f1 = cost_and_gradient(
            model, stack, object_patch + eps * d_obj, measured
        ).cost
        analytic = 2.0 * np.real(
            np.vdot(result.object_grad, d_obj)
        )
        assert (f1 - f0) / eps == pytest.approx(analytic, rel=1e-4)

        # Probe direction, per-mode stack.
        d_probe = rng.standard_normal(
            stack.shape
        ) + 1j * rng.standard_normal(stack.shape)
        f1p = cost_and_gradient(
            model, stack + eps * d_probe, object_patch, measured
        ).cost
        analytic_p = 2.0 * np.real(np.vdot(result.probe_grad, d_probe))
        assert (f1p - f0) / eps == pytest.approx(analytic_p, rel=1e-4)

    def test_batch_matches_per_position(
        self, model, base_probe, object_patch, measured
    ):
        stack = make_mode_stack(base_probe, 2)
        rng = np.random.default_rng(13)
        patches = np.stack(
            [
                object_patch,
                object_patch
                * np.exp(1j * rng.uniform(-0.1, 0.1, object_patch.shape)),
            ]
        )
        measured_b = np.stack([measured, measured * 1.01])
        batch = model.cost_and_gradient_batch(
            stack, patches, measured_b, compute_probe_grad=True
        )
        assert batch.probe_grads.shape == (2, 2, WINDOW, WINDOW)
        for b in range(2):
            single = cost_and_gradient(
                model, stack, patches[b], measured_b[b], compute_probe_grad=True
            )
            assert float(batch.costs[b]) == pytest.approx(
                single.cost, rel=1e-12
            )
            np.testing.assert_allclose(
                batch.object_grads[b], single.object_grad, rtol=1e-10
            )
            np.testing.assert_allclose(
                batch.probe_grads[:, b], single.probe_grad, rtol=1e-10
            )


# ----------------------------------------------------------------------
# Orthogonalization properties (derandomized hypothesis)
# ----------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

COMMON = settings(max_examples=25, deadline=None, derandomize=True)


def _random_stack(seed: int, n_modes: int, window: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(
        (n_modes, window, window)
    ) + 1j * rng.standard_normal((n_modes, window, window))


@COMMON
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_modes=st.integers(min_value=2, max_value=5),
    window=st.sampled_from([4, 8]),
)
def test_orthogonalized_modes_energy_descending(seed, n_modes, window):
    out = orthogonalize_modes(_random_stack(seed, n_modes, window))
    powers = mode_powers(out)
    assert np.all(powers[:-1] >= powers[1:] - 1e-12)


@COMMON
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_modes=st.integers(min_value=2, max_value=5),
    window=st.sampled_from([4, 8]),
)
def test_orthogonalized_modes_pairwise_orthogonal(seed, n_modes, window):
    stack = _random_stack(seed, n_modes, window)
    out = orthogonalize_modes(stack)
    flat = out.reshape(n_modes, -1)
    gram = flat @ flat.conj().T
    scale = max(float(np.abs(np.diag(gram)).max()), 1.0)
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-9 * scale
    # Total intensity preserved (Frobenius norm is U-invariant).
    np.testing.assert_allclose(
        mode_powers(out).sum(), mode_powers(stack).sum(), rtol=1e-10
    )


@COMMON
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    window=st.sampled_from([4, 8]),
)
def test_orthogonalize_single_mode_noop(seed, window):
    stack = _random_stack(seed, 1, window)
    assert orthogonalize_modes(stack) is stack
