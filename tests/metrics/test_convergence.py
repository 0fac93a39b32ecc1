"""Convergence summaries."""

import pytest

from repro.metrics.convergence import auc_cost, relative_decrease


class TestRelativeDecrease:
    def test_halving(self):
        assert relative_decrease([4.0, 3.0, 2.0]) == pytest.approx(0.5)

    def test_flat(self):
        assert relative_decrease([2.0, 2.0]) == pytest.approx(1.0)

    def test_zero_start(self):
        assert relative_decrease([0.0, 0.0]) == 0.0
        assert relative_decrease([0.0, 1.0]) == float("inf")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            relative_decrease([])


class TestAuc:
    def test_faster_decay_smaller_auc(self):
        fast = [1.0, 0.1, 0.01, 0.001]
        slow = [1.0, 0.8, 0.6, 0.5]
        assert auc_cost(fast) < auc_cost(slow)

    def test_normalized_by_initial(self):
        assert auc_cost([2.0, 2.0, 2.0]) == pytest.approx(
            auc_cost([7.0, 7.0, 7.0])
        )

    def test_zero_start(self):
        assert auc_cost([0.0, 0.0]) == 0.0
