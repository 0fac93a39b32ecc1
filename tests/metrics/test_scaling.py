"""Strong-scaling arithmetic."""

import pytest

from repro.metrics.scaling import speedups, strong_scaling_efficiency


class TestSpeedups:
    def test_relative_to_first(self):
        assert speedups([100.0, 25.0, 10.0], [1, 4, 10]) == pytest.approx(
            [1.0, 4.0, 10.0]
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            speedups([], [])
        with pytest.raises(ValueError):
            speedups([1.0, -1.0], [1, 2])
        with pytest.raises(ValueError):
            speedups([1.0], [1, 2])


class TestEfficiency:
    def test_linear_scaling_is_100(self):
        eff = strong_scaling_efficiency([100.0, 50.0, 25.0], [1, 2, 4])
        assert eff == pytest.approx([100.0, 100.0, 100.0])

    def test_paper_table3_values(self):
        """Recompute the paper's Table III(a) efficiency row from its
        runtime/GPU rows — validates our formula against theirs."""
        times = [5543.0, 183.0, 37.5, 14.2, 7.0, 2.2]
        gpus = [6, 54, 198, 462, 924, 4158]
        eff = strong_scaling_efficiency(times, gpus)
        paper = [100, 336, 448, 509, 518, 364]
        for ours, theirs in zip(eff, paper):
            assert ours == pytest.approx(theirs, rel=0.01)
