"""Structure of one compiled iteration on a 2x3 mesh: the point-to-point
traffic of the gradient decomposition runs only between mesh neighbours,
the scan's probes are spread evenly over the ranks, and the halo-exchange
baseline pays for its redundant probes in compute."""

import numpy as np
import pytest

from repro.baseline.halo_exchange import HaloExchangeReconstructor
from repro.core.decomposition import (
    decompose_gradient,
    decompose_halo_exchange,
)
from repro.core.reconstructor import GradientDecompositionReconstructor
from repro.parallel.topology import MeshLayout
from repro.physics.scan import RasterScan, ScanSpec
from repro.schedule.ops import (
    BufferExchange,
    ComputeGradients,
    LocalSolve,
    VoxelPaste,
)

MESH = MeshLayout(2, 3)


@pytest.fixture(scope="module")
def setup():
    scan = RasterScan(ScanSpec(grid=(6, 6), step_px=4.0), probe_window_px=12)
    r, c = scan.required_fov()
    decomp = decompose_gradient(scan, (r + 2, c + 2), mesh=MESH)
    recon = GradientDecompositionReconstructor(mesh=MESH, iterations=1)
    return decomp, recon.build_iteration_schedule(decomp)


def traffic(schedule):
    """``(n_ranks, n_ranks)`` point-to-point pixels, sender by receiver."""
    matrix = np.zeros((schedule.n_ranks, schedule.n_ranks))
    for op in schedule:
        if isinstance(op, (BufferExchange, VoxelPaste)):
            matrix[op.src, op.dst] += op.region.area
    return matrix


def computed_probes(schedule):
    return [
        p
        for op in schedule
        if isinstance(op, (ComputeGradients, LocalSolve))
        for p in op.probe_indices
    ]


def test_schedule_is_topological(setup):
    _, schedule = setup
    schedule.validate()


def test_no_self_traffic(setup):
    _, schedule = setup
    assert np.trace(traffic(schedule)) == 0.0
    assert traffic(schedule).sum() > 0


def test_only_mesh_neighbours_exchange(setup):
    _, schedule = setup
    senders, receivers = np.nonzero(traffic(schedule))
    for a, b in zip(senders, receivers):
        (ra, ca), (rb, cb) = MESH.coords_of(a), MESH.coords_of(b)
        assert abs(ra - rb) + abs(ca - cb) == 1


def test_exchange_pattern_is_symmetric(setup):
    """Forward and backward passes cross the same overlaps."""
    _, schedule = setup
    talks = traffic(schedule) > 0
    np.testing.assert_array_equal(talks, talks.T)


def test_message_stats_scale_with_pixel_size(setup):
    _, schedule = setup
    n1, bytes1 = schedule.message_stats(1.0)
    n8, bytes8 = schedule.message_stats(8.0)
    assert n1 == n8 > 0
    assert bytes8 == pytest.approx(8.0 * bytes1)
    assert bytes1 == traffic(schedule).sum()


def test_every_probe_computed_once_per_iteration(setup):
    decomp, schedule = setup
    assert sorted(computed_probes(schedule)) == list(
        range(decomp.scan.n_positions)
    )


def test_probes_spread_evenly_over_ranks(setup):
    decomp, _ = setup
    probes = [len(t.probes) for t in decomp.tiles]
    assert sum(probes) == 36
    assert np.mean(probes) == pytest.approx(36 / 6)
    assert max(probes) / np.mean(probes) < 1.5


def test_halo_exchange_computes_redundant_probes(setup):
    decomp, gd_schedule = setup
    hve = HaloExchangeReconstructor(
        mesh=MESH, iterations=1, extra_rows=1, enforce_tile_constraint=False
    )
    hve_decomp = decompose_halo_exchange(
        decomp.scan,
        (decomp.bounds.r1, decomp.bounds.c1),
        mesh=MESH,
        extra_rows=1,
        enforce_tile_constraint=False,
    )
    hve_probes = computed_probes(hve.build_iteration_schedule(hve_decomp))
    assert len(hve_probes) > len(computed_probes(gd_schedule))
    assert set(hve_probes) == set(range(decomp.scan.n_positions))
