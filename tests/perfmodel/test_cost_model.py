"""Calibrated cost model."""

import numpy as np
import pytest

from repro.core.decomposition import decompose_gradient
from repro.obs.telemetry import Telemetry, activate
from repro.parallel.topology import MeshLayout
from repro.perfmodel.cost_model import SummitCostModel, multislice_flops
from repro.perfmodel.machine import SUMMIT
from repro.physics.dataset import large_pbtio3_spec
from repro.physics.multislice import MultisliceModel
from repro.physics.scan import RasterScan
from tests.reference.kernel import cost_and_gradient


@pytest.fixture(scope="module")
def setup():
    spec = large_pbtio3_spec()
    scan = RasterScan(spec.scan_spec(), probe_window_px=spec.detector_px)
    decomp_small = decompose_gradient(
        scan, spec.object_shape, mesh=MeshLayout(2, 3), halo=60
    )
    decomp_large = decompose_gradient(
        scan, spec.object_shape, mesh=MeshLayout(63, 66), halo=60
    )
    return spec, decomp_small, decomp_large


class TestFlops:
    def test_scales_with_slices(self):
        assert multislice_flops(1024, 100) > 40 * multislice_flops(1024, 2)

    def test_nlogn_in_window(self):
        small = multislice_flops(256, 10)
        large = multislice_flops(1024, 10)
        assert large / small > 16  # super-linear in area


    @pytest.mark.parametrize("n_slices", [1, 2, 6])
    def test_fft_term_counts_the_kernels_transforms(self, n_slices):
        """The model charges 5 n^2 log2(n^2) per transform for exactly
        the transforms a cost+gradient evaluation performs: 4S - 2."""
        window = 8
        model = MultisliceModel(
            window, n_slices, 10.0, 2.5, 125.0, backend="numpy"
        )
        field = np.ones((window, window), dtype=complex)
        tel = Telemetry()
        with activate(tel):
            cost_and_gradient(
                model, field, np.ones((n_slices, window, window), dtype=complex),
                np.abs(field),
            )
        performed = tel.counters_snapshot()["fft.calls"]
        assert performed == 4 * n_slices - 2
        n2 = float(window * window)
        assert multislice_flops(window, n_slices) == pytest.approx(
            performed * 5.0 * n2 * np.log2(n2) + 12.0 * n_slices * n2
        )


class TestProbeSeconds:
    def test_paper_calibration_at_6_gpus(self, setup):
        """Table III(a): 5543 min / 100 iterations / 2772 probes ~= 1.2 s
        per probe at the 6-GPU working set."""
        spec, decomp6, _ = setup
        costs = SummitCostModel(spec, decomp6, SUMMIT)
        t = costs.probe_seconds(0) / SUMMIT.speed_factor(0)
        assert 0.8 < t < 1.6

    def test_paper_calibration_at_4158_gpus(self, setup):
        """2.2 min / 100 iterations / 4 probes ~= 0.33 s per probe."""
        spec, _, decomp4158 = setup
        costs = SummitCostModel(spec, decomp4158, SUMMIT)
        t = costs.probe_seconds(0) / SUMMIT.speed_factor(0)
        assert 0.15 < t < 0.45

    def test_superlinear_ratio(self, setup):
        spec, decomp6, decomp4158 = setup
        c6 = SummitCostModel(spec, decomp6, SUMMIT)
        c4158 = SummitCostModel(spec, decomp4158, SUMMIT)
        ratio = (c6.probe_seconds(0) / SUMMIT.speed_factor(0)) / (
            c4158.probe_seconds(0) / SUMMIT.speed_factor(0)
        )
        assert ratio > 2.5

    def test_gradient_seconds_linear_in_probes(self, setup):
        spec, decomp6, _ = setup
        costs = SummitCostModel(spec, decomp6, SUMMIT)
        assert costs.gradient_seconds(0, 10) == pytest.approx(
            10 * costs.gradient_seconds(0, 1)
        )


class TestMessageSizes:
    def test_exchange_bytes_complex64(self, setup):
        spec, decomp6, _ = setup
        costs = SummitCostModel(spec, decomp6, SUMMIT)
        assert costs.exchange_bytes(1000) == pytest.approx(
            1000 * spec.n_slices * 8.0
        )

    def test_allreduce_is_full_volume(self, setup):
        spec, decomp6, _ = setup
        costs = SummitCostModel(spec, decomp6, SUMMIT)
        assert costs.allreduce_bytes() == pytest.approx(
            3072 * 3072 * 100 * 8.0
        )

    def test_round_factors(self, setup):
        spec, decomp6, _ = setup
        base = SummitCostModel(spec, decomp6, SUMMIT)
        relayed = SummitCostModel(
            spec, decomp6, SUMMIT, comm_round_factor=2.0,
            compute_round_factor=1.5,
        )
        assert relayed.exchange_bytes(100) == pytest.approx(
            2 * base.exchange_bytes(100)
        )
        assert relayed.gradient_seconds(0, 4) == pytest.approx(
            1.5 * base.gradient_seconds(0, 4)
        )

    def test_round_factor_validation(self, setup):
        spec, decomp6, _ = setup
        with pytest.raises(ValueError):
            SummitCostModel(spec, decomp6, SUMMIT, comm_round_factor=0.5)

    def test_update_and_apply_positive(self, setup):
        spec, decomp6, _ = setup
        costs = SummitCostModel(spec, decomp6, SUMMIT)
        assert costs.update_seconds(0) > 0
        assert costs.apply_seconds(100) > 0
