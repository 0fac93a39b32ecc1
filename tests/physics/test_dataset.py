"""Dataset simulation and the Table I specs."""

import numpy as np
import pytest

from repro.physics.dataset import (
    DatasetSpec,
    large_pbtio3_spec,
    scaled_pbtio3_spec,
    simulate_dataset,
    small_pbtio3_spec,
    suggest_lr,
)


class TestFullSizeSpecs:
    def test_small_matches_table1(self):
        s = small_pbtio3_spec()
        assert s.scan_grid == (63, 66)
        assert s.n_probes == 4158
        assert s.object_shape == (1536, 1536)
        assert s.n_slices == 100
        assert s.detector_px == 1024

    def test_large_matches_table1(self):
        s = large_pbtio3_spec()
        assert s.scan_grid == (126, 132)
        assert s.n_probes == 16632
        assert s.object_shape == (3072, 3072)

    def test_voxel_size_matches_paper(self):
        s = large_pbtio3_spec()
        assert s.pixel_size_pm == 10.0
        assert s.slice_thickness_pm == 125.0

    def test_measurement_bytes(self):
        s = small_pbtio3_spec()
        expected = 4158 * 1024 * 1024 * 2  # float16
        assert s.measurement_bytes_total == expected

    def test_volume_bytes(self):
        s = small_pbtio3_spec()
        assert s.volume_bytes_total == 1536 * 1536 * 100 * 8

    def test_scan_fits_object(self):
        for spec in (small_pbtio3_spec(), large_pbtio3_spec()):
            scan_spec = spec.scan_spec()
            assert scan_spec.step_px > 0
            # Last window must fit: margin + step*(n-1) + window <= dim.
            n_r, n_c = spec.scan_grid
            assert (
                scan_spec.step_px * (n_r - 1) + spec.detector_px
                <= spec.object_shape[0] + 1
            )

    def test_high_overlap_regime(self):
        """The paper's acquisitions are >70% overlap (Sec. II-A)."""
        for spec in (small_pbtio3_spec(), large_pbtio3_spec()):
            probe_r = spec.probe_spec.nominal_radius_px
            step = spec.scan_spec().step_px
            circle_overlap = 1.0 - step / (2 * probe_r)
            assert circle_overlap > 0.7


class TestScaledSpec:
    def test_geometry_fits(self):
        spec = scaled_pbtio3_spec(scan_grid=(4, 5), detector_px=16, n_slices=2)
        ds = simulate_dataset(spec, seed=0)
        assert ds.amplitudes.shape == (20, 16, 16)

    def test_circle_overlap_sets_step(self):
        spec = scaled_pbtio3_spec(
            scan_grid=(4, 4), detector_px=24, circle_overlap=0.8
        )
        assert spec.scan_spec().step_px == pytest.approx(2.4, abs=0.01)

    def test_circle_overlap_validation(self):
        with pytest.raises(ValueError):
            scaled_pbtio3_spec(circle_overlap=1.0)

    def test_probe_scaled_to_window(self):
        spec = scaled_pbtio3_spec(detector_px=32)
        r = spec.probe_spec.nominal_radius_px
        assert 4 < r < 16  # around window/4 plus the Airy term

    def test_validation(self):
        with pytest.raises(ValueError):
            DatasetSpec(
                name="x",
                scan_grid=(0, 3),
                object_shape=(64, 64),
                n_slices=2,
                detector_px=16,
            )
        with pytest.raises(ValueError):
            DatasetSpec(
                name="x",
                scan_grid=(3, 3),
                object_shape=(64, 64),
                n_slices=2,
                detector_px=0,
            )


class TestSimulation:
    def test_amplitudes_non_negative(self, tiny_dataset):
        assert float(tiny_dataset.amplitudes.min()) >= 0.0

    def test_cost_at_ground_truth_near_zero(self, tiny_dataset):
        """The acquisition is consistent: the true object explains the
        measurements (up to float16 storage rounding)."""
        model = tiny_dataset.multislice_model()
        total = 0.0
        for i, w in enumerate(tiny_dataset.scan.windows):
            sl = w.global_slices()
            patch = tiny_dataset.ground_truth[:, sl[0], sl[1]]
            total += model.cost_only(
                tiny_dataset.probe.array, patch, tiny_dataset.amplitude(i)
            )
        assert total < 1e-4

    def test_reproducible(self):
        spec = scaled_pbtio3_spec(scan_grid=(3, 3), detector_px=16, n_slices=2)
        a = simulate_dataset(spec, seed=7)
        b = simulate_dataset(spec, seed=7)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_seed_changes_data(self):
        spec = scaled_pbtio3_spec(scan_grid=(3, 3), detector_px=16, n_slices=2)
        a = simulate_dataset(spec, seed=1)
        b = simulate_dataset(spec, seed=2)
        assert not np.allclose(a.amplitudes, b.amplitudes)

    def test_poisson_noise_perturbs(self):
        spec = scaled_pbtio3_spec(scan_grid=(3, 3), detector_px=16, n_slices=2)
        clean = simulate_dataset(spec, seed=3)
        noisy = simulate_dataset(spec, seed=3, poisson_dose=1e4)
        assert not np.allclose(clean.amplitudes, noisy.amplitudes)
        assert float(noisy.amplitudes.min()) >= 0.0

    def test_poisson_noise_scales_with_dose(self):
        spec = scaled_pbtio3_spec(scan_grid=(3, 3), detector_px=16, n_slices=2)
        clean = simulate_dataset(spec, seed=3)
        low = simulate_dataset(spec, seed=3, poisson_dose=1e3)
        high = simulate_dataset(spec, seed=3, poisson_dose=1e7)
        err_low = np.abs(
            low.amplitudes.astype(np.float64)
            - clean.amplitudes.astype(np.float64)
        ).mean()
        err_high = np.abs(
            high.amplitudes.astype(np.float64)
            - clean.amplitudes.astype(np.float64)
        ).mean()
        assert err_low > err_high

    def test_object_too_small_raises(self):
        spec = DatasetSpec(
            name="toosmall",
            scan_grid=(10, 10),
            object_shape=(20, 20),
            n_slices=2,
            detector_px=16,
        )
        with pytest.raises(ValueError, match="field of view"):
            simulate_dataset(spec)

    def test_initial_object_is_vacuum(self, tiny_dataset):
        init = tiny_dataset.initial_object()
        assert init.shape == (
            tiny_dataset.n_slices,
            *tiny_dataset.object_shape,
        )
        np.testing.assert_array_equal(init, np.ones_like(init))


class TestSuggestLr:
    def test_positive(self, tiny_dataset):
        assert suggest_lr(tiny_dataset) > 0

    def test_scales_with_alpha(self, tiny_dataset):
        assert suggest_lr(tiny_dataset, 1.0) == pytest.approx(
            2 * suggest_lr(tiny_dataset, 0.5)
        )

    def test_validation(self, tiny_dataset):
        with pytest.raises(ValueError):
            suggest_lr(tiny_dataset, 0.0)
