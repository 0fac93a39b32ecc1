"""The serial reference's BatchPlanner + REPRO_BATCH_SIZE resolution
precedence."""

from __future__ import annotations

import pytest

from repro.core.decomposition import decompose_gradient
from repro.data import (
    ENV_BATCH_SIZE,
    default_batch_size,
    resolve_batch_size,
)
from tests.reference.batching import BatchPlanner


class TestBatchPlanner:
    def test_plan_preserves_order_and_bounds(self):
        planner = BatchPlanner(4)
        batches = planner.plan(list(range(10)))
        assert batches == [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9)]
        assert planner.n_batches(10) == 3

    def test_batch_one_is_per_position(self):
        planner = BatchPlanner(1)
        assert planner.plan([7, 3, 5]) == [(7,), (3,), (5,)]

    def test_oversized_batch_is_single(self):
        planner = BatchPlanner(100)
        assert planner.plan([1, 2, 3]) == [(1, 2, 3)]

    def test_empty_input_plans_nothing(self):
        planner = BatchPlanner(4)
        assert planner.plan([]) == []
        assert planner.n_batches(0) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="batch_size"):
            BatchPlanner(0)
        with pytest.raises(ValueError, match="batch_size"):
            BatchPlanner(-3)

    def test_plan_tiles_covers_every_owned_probe(self, tiny_dataset):
        decomp = decompose_gradient(
            tiny_dataset.scan, tiny_dataset.object_shape, n_ranks=4
        )
        plans = BatchPlanner(2).plan_tiles(decomp)
        assert set(plans) == {t.rank for t in decomp.tiles}
        for tile in decomp.tiles:
            flattened = tuple(
                i for batch in plans[tile.rank] for i in batch
            )
            assert flattened == tile.probes


class TestBatchSizeResolution:
    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv(ENV_BATCH_SIZE, raising=False)
        assert default_batch_size() == 1
        assert resolve_batch_size(None) == 1

    def test_env_fills_ambient(self, monkeypatch):
        monkeypatch.setenv(ENV_BATCH_SIZE, "8")
        assert resolve_batch_size(None) == 8

    def test_explicit_beats_env(self, monkeypatch):
        # The backend/executor precedence contract, data edition.
        monkeypatch.setenv(ENV_BATCH_SIZE, "8")
        assert resolve_batch_size(3) == 3

    @pytest.mark.parametrize("raw", ["zero", "", "0", "-2", "1.5"])
    def test_env_garbage_is_loud(self, monkeypatch, raw):
        monkeypatch.setenv(ENV_BATCH_SIZE, raw)
        with pytest.raises(ValueError, match=ENV_BATCH_SIZE):
            resolve_batch_size(None)

    def test_explicit_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            resolve_batch_size(0)
