"""End-to-end backend/precision parity on the scaled PbTiO3 spec.

Tolerancing note: a ptychographic iteration *amplifies* floating-point
differences (the amplitude projection is non-smooth where ``|Psi|`` is
small), so eps-level kernel differences between numpy and scipy pocketfft
grow over iterations.  The suite therefore asserts three tiers: kernel
parity at machine epsilon, reconstruction parity well below the
single-precision noise floor, and complex64-vs-complex128 agreement at
the level single precision can support.
"""

import numpy as np
import pytest

from repro.baseline.serial import SerialReconstructor
from repro.core.reconstructor import GradientDecompositionReconstructor
from repro.physics.dataset import suggest_lr
from tests.reference.kernel import cost_and_gradient
from tests.reference.serial import SerialReference


@pytest.fixture(scope="module")
def lr(tiny_dataset):
    return suggest_lr(tiny_dataset, alpha=0.35)


class TestKernelParity:
    """One cost+gradient evaluation: the unit the reconstruction loops."""

    def test_threaded_matches_numpy_at_eps(self, tiny_dataset):
        probe = tiny_dataset.probe.array
        patch_window = tiny_dataset.scan.windows[0].global_slices()
        patch = tiny_dataset.ground_truth[
            :, patch_window[0], patch_window[1]
        ] * np.exp(1j * 0.05)
        measured = tiny_dataset.amplitude(0)
        r_np = cost_and_gradient(
            tiny_dataset.multislice_model(backend="numpy"),
            probe, patch, measured,
        )
        r_th = cost_and_gradient(
            tiny_dataset.multislice_model(backend="threaded"),
            probe, patch, measured,
        )
        scale = np.abs(r_np.object_grad).max()
        assert np.abs(r_np.object_grad - r_th.object_grad).max() < 1e-11 * scale
        assert r_th.cost == pytest.approx(r_np.cost, rel=1e-12)

    def test_complex64_kernel_within_single_precision(self, tiny_dataset):
        probe = tiny_dataset.probe.array
        sl = tiny_dataset.scan.windows[0].global_slices()
        patch = tiny_dataset.ground_truth[:, sl[0], sl[1]] * np.exp(1j * 0.05)
        measured = tiny_dataset.amplitude(0)
        r_hi = cost_and_gradient(
            tiny_dataset.multislice_model(dtype="complex128"),
            probe, patch, measured,
        )
        r_lo = cost_and_gradient(
            tiny_dataset.multislice_model(dtype="complex64"),
            probe, patch, measured,
        )
        assert r_lo.object_grad.dtype == np.complex64
        scale = np.abs(r_hi.object_grad).max()
        assert np.abs(r_hi.object_grad - r_lo.object_grad).max() < 5e-3 * scale
        assert r_lo.cost == pytest.approx(r_hi.cost, rel=1e-3)


class TestSerialParity:
    def test_threaded_complex128(self, tiny_dataset, lr):
        r_np = SerialReconstructor(
            iterations=4, lr=lr, backend="numpy"
        ).reconstruct(tiny_dataset)
        r_th = SerialReconstructor(
            iterations=4, lr=lr, backend="threaded"
        ).reconstruct(tiny_dataset)
        assert r_th.volume.dtype == np.complex128
        # ~20x tighter than the single-precision noise floor below.
        assert np.abs(r_np.volume - r_th.volume).max() < 1e-4
        assert r_th.history[-1] == pytest.approx(r_np.history[-1], rel=1e-3)

    def test_complex64_vs_complex128(self, tiny_dataset, lr):
        r_hi = SerialReconstructor(
            iterations=4, lr=lr, dtype="complex128"
        ).reconstruct(tiny_dataset)
        r_lo = SerialReconstructor(
            iterations=4, lr=lr, dtype="complex64"
        ).reconstruct(tiny_dataset)
        assert r_lo.volume.dtype == np.complex64
        # Transmission values are O(1); single precision holds the
        # reconstruction to a few 1e-2 after 4 amplifying iterations.
        assert np.abs(r_hi.volume - r_lo.volume).max() < 0.1
        # Both converge: same cost-reduction factor to within 2x.
        hi_ratio = r_hi.history[-1] / r_hi.history[0]
        lo_ratio = r_lo.history[-1] / r_lo.history[0]
        assert lo_ratio < 2.0 * hi_ratio + 1e-12


class TestDistributedParity:
    @pytest.mark.parametrize("backend", ["numpy", "threaded"])
    def test_gd_runs_and_matches_dtype(self, tiny_dataset, lr, backend):
        result = GradientDecompositionReconstructor(
            n_ranks=4, iterations=3, lr=lr, backend=backend, dtype="complex64"
        ).reconstruct(tiny_dataset)
        assert result.volume.dtype == np.complex64

    def test_gd_threaded_complex128(self, tiny_dataset, lr):
        r_np = GradientDecompositionReconstructor(
            n_ranks=4, iterations=3, lr=lr, backend="numpy"
        ).reconstruct(tiny_dataset)
        r_th = GradientDecompositionReconstructor(
            n_ranks=4, iterations=3, lr=lr, backend="threaded"
        ).reconstruct(tiny_dataset)
        # Alg. 1's local+buffer double update amplifies kernel eps harder
        # than the serial sweep; still an order below the c64 floor.
        assert np.abs(r_np.volume - r_th.volume).max() < 1e-2
        assert r_th.history[-1] == pytest.approx(r_np.history[-1], rel=1e-2)

    def test_gd_synchronous_still_matches_serial_on_threaded(
        self, tiny_dataset, lr
    ):
        """The strongest seed invariant, now on the threaded backend:
        synchronous-mode gd == serial batch descent bit-for-bit when both
        run the *same* backend."""
        r_gd = GradientDecompositionReconstructor(
            n_ranks=4,
            iterations=2,
            lr=lr,
            mode="synchronous",
            planner="allreduce",
            backend="threaded",
        ).reconstruct(tiny_dataset)
        r_serial = SerialReference(
            iterations=2, lr=lr, backend="threaded"
        ).reconstruct(tiny_dataset)
        np.testing.assert_allclose(
            r_gd.volume, r_serial.volume, atol=1e-10
        )

    def test_complex64_halves_peak_memory(self, tiny_dataset, lr):
        kwargs = dict(n_ranks=4, iterations=2, lr=lr)
        hi = GradientDecompositionReconstructor(
            dtype="complex128", **kwargs
        ).reconstruct(tiny_dataset)
        lo = GradientDecompositionReconstructor(
            dtype="complex64", **kwargs
        ).reconstruct(tiny_dataset)
        # volume + accbuf dominate and halve exactly; measurements
        # (float16 shards) and the probe make the total ratio < 2 but
        # decisively below 1.
        assert lo.peak_memory_mean < 0.65 * hi.peak_memory_mean


class TestApiParity:
    def test_reconstruct_with_backend_config(self, tiny_dataset, lr):
        import repro

        config = repro.ReconstructionConfig(
            solver="serial",
            solver_params={"iterations": 2, "lr": float(lr)},
            backend="threaded",
            dtype="complex64",
        )
        result = repro.reconstruct(tiny_dataset, config)
        assert result.volume.dtype == np.complex64

    def test_use_backend_context_drives_default(self, tiny_dataset, lr):
        from repro.backend import use_backend

        with use_backend("threaded"):
            result = SerialReconstructor(iterations=1, lr=lr).reconstruct(
                tiny_dataset
            )
        assert result.volume.dtype == np.complex128  # dtype untouched
