"""Seeded property-based tests: BatchPlanner and Decomposition
invariants over randomized geometries.

``derandomize=True`` makes hypothesis derive its examples from each
test's source — runs are reproducible without a seed database, which is
what a golden-fingerprint CI needs (no flaky shrink sessions).
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.decomposition import decompose_gradient  # noqa: E402
from repro.physics.scan import RasterScan, ScanSpec  # noqa: E402
from tests.reference.batching import BatchPlanner  # noqa: E402

COMMON = settings(max_examples=40, deadline=None, derandomize=True)


# ----------------------------------------------------------------------
# BatchPlanner invariants
# ----------------------------------------------------------------------
@COMMON
@given(
    indices=st.lists(
        st.integers(min_value=0, max_value=10_000),
        max_size=200,
        unique=True,
    ),
    batch_size=st.integers(min_value=1, max_value=64),
)
def test_planner_partitions_exactly_once(indices, batch_size):
    batches = BatchPlanner(batch_size).plan(indices)
    # Every position exactly once, order preserved (required for
    # bit-exact parity with per-position accumulation order).
    flattened = [i for batch in batches for i in batch]
    assert flattened == list(indices)
    # Batch bounds respected; no empty batches; only the final batch
    # may be ragged.
    assert all(batches), "no batch may be empty"
    assert all(len(b) <= batch_size for b in batches)
    assert all(len(b) == batch_size for b in batches[:-1])
    assert len(batches) == BatchPlanner(batch_size).n_batches(len(indices))


# ----------------------------------------------------------------------
# Decomposition invariants over randomized geometries
# ----------------------------------------------------------------------
def _random_geometry(draw):
    grid_r = draw(st.integers(min_value=1, max_value=6))
    grid_c = draw(st.integers(min_value=1, max_value=6))
    window = draw(st.sampled_from([8, 12, 16]))
    step = draw(st.integers(min_value=2, max_value=window))
    margin = draw(st.integers(min_value=0, max_value=3))
    scan = RasterScan(
        ScanSpec(grid=(grid_r, grid_c), step_px=float(step),
                 margin_px=margin),
        probe_window_px=window,
    )
    rows, cols = scan.required_fov()
    pad_r = draw(st.integers(min_value=0, max_value=8))
    pad_c = draw(st.integers(min_value=0, max_value=8))
    shape = (rows + pad_r, cols + pad_c)
    max_ranks = min(grid_r * grid_c, 9)
    n_ranks = draw(st.integers(min_value=1, max_value=max_ranks))
    return scan, shape, n_ranks


@COMMON
@given(data=st.data())
def test_decomposition_invariants(data):
    scan, shape, n_ranks = _random_geometry(data.draw)
    try:
        decomp = decompose_gradient(scan, shape, n_ranks=n_ranks)
    except ValueError as exc:
        # Degenerate splits (an axis too thin for the mesh) must fail
        # loudly, never produce a broken decomposition.
        assert "tiles" in str(exc) or "split" in str(exc)
        return

    # Probe ownership: every scan position assigned to exactly one tile.
    seen = np.zeros(scan.n_positions, dtype=int)
    for tile in decomp.tiles:
        for p in tile.probes:
            seen[p] += 1
    assert (seen == 1).all()

    # Tile coverage: core tiles partition the image exactly.
    bounds = decomp.bounds
    cover = np.zeros((bounds.height, bounds.width), dtype=int)
    for tile in decomp.tiles:
        sl = tile.core.slices_in(bounds)
        cover[sl[0], sl[1]] += 1
    assert (cover == 1).all()

    # Extended tiles contain their cores and (exact halo mode) cover
    # every owned probe window.
    for tile in decomp.tiles:
        assert tile.ext.contains(tile.core)
        assert bounds.contains(tile.ext)
        for p in tile.probes:
            window = scan.window_of(p).intersect(bounds)
            assert window is None or tile.ext.contains(window)

    # Batching a decomposition preserves the ownership partition for
    # every batch size (the planner is pure bookkeeping).
    batch_size = data.draw(st.integers(min_value=1, max_value=8))
    plans = BatchPlanner(batch_size).plan_tiles(decomp)
    for tile in decomp.tiles:
        assert tuple(
            i for batch in plans[tile.rank] for i in batch
        ) == tile.probes
