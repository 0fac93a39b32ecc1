"""Tile decomposition: structure, probe ownership, halos, constraints."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.decomposition import (
    ScalabilityError,
    decompose_gradient,
    decompose_halo_exchange,
)
from repro.parallel.topology import MeshLayout
from repro.physics.scan import RasterScan, ScanSpec
from repro.utils.geometry import Rect


def make_scan(grid=(6, 6), step=4.0, window=12):
    return RasterScan(ScanSpec(grid=grid, step_px=step), probe_window_px=window)


def fov_for(scan, margin=2):
    r, c = scan.required_fov()
    return (r + margin, c + margin)


class TestGradientDecomposition:
    @pytest.fixture(scope="class")
    def decomp(self):
        scan = make_scan()
        return decompose_gradient(scan, fov_for(scan), mesh=MeshLayout(2, 3))

    def test_partition_exact(self, decomp):
        assert sum(t.core.area for t in decomp.tiles) == decomp.bounds.area

    def test_all_probes_owned_once(self, decomp):
        owned = sorted(p for t in decomp.tiles for p in t.probes)
        assert owned == list(range(decomp.scan.n_positions))

    def test_no_extras(self, decomp):
        assert all(t.extra_probes == () for t in decomp.tiles)

    def test_exact_halo_covers_own_windows(self, decomp):
        for t in decomp.tiles:
            for p in t.probes:
                w = decomp.scan.window_of(p).clip(decomp.bounds)
                assert t.ext.contains(w)

    def test_ext_contains_core(self, decomp):
        assert all(t.ext.contains(t.core) for t in decomp.tiles)

    def test_overlap_symmetric(self, decomp):
        for a in range(decomp.n_ranks):
            for b in range(decomp.n_ranks):
                assert decomp.overlap(a, b) == decomp.overlap(b, a)

    def test_mesh_accessors(self, decomp):
        t = decomp.tile_at(1, 2)
        assert t.rank == decomp.mesh.rank_of(1, 2)
        assert decomp.tile(t.rank) is t

    def test_fixed_halo_width(self):
        scan = make_scan()
        d = decompose_gradient(
            scan, fov_for(scan), mesh=MeshLayout(2, 2), halo=3
        )
        for t in d.tiles:
            # Interior sides extend exactly 3 px (image edges clip).
            if t.core.r0 > d.bounds.r0:
                assert t.core.r0 - t.ext.r0 == 3
            if t.core.r1 < d.bounds.r1:
                assert t.ext.r1 - t.core.r1 == 3

    def test_halo_mode_validation(self):
        scan = make_scan()
        with pytest.raises(ValueError):
            decompose_gradient(
                scan, fov_for(scan), mesh=MeshLayout(2, 2), halo="weird"
            )
        with pytest.raises(ValueError):
            decompose_gradient(
                scan, fov_for(scan), mesh=MeshLayout(2, 2), halo=-1
            )

    def test_mesh_xor_n_ranks(self):
        scan = make_scan()
        with pytest.raises(ValueError):
            decompose_gradient(scan, fov_for(scan))
        with pytest.raises(ValueError):
            decompose_gradient(
                scan, fov_for(scan), mesh=MeshLayout(2, 2), n_ranks=4
            )

    def test_n_ranks_auto_mesh(self):
        scan = make_scan()
        d = decompose_gradient(scan, fov_for(scan), n_ranks=6)
        assert d.n_ranks == 6

    def test_partition_scan_balances_probes(self):
        """Scan-balanced splits give near-equal probe counts."""
        scan = make_scan(grid=(8, 8))
        d = decompose_gradient(
            scan, fov_for(scan, margin=20), mesh=MeshLayout(2, 2),
            partition="scan",
        )
        counts = [len(t.probes) for t in d.tiles]
        assert max(counts) - min(counts) <= 8

    def test_partition_uniform_splits_evenly_in_pixels(self):
        scan = make_scan()
        d = decompose_gradient(
            scan, fov_for(scan), mesh=MeshLayout(2, 2), partition="uniform"
        )
        heights = {t.core.height for t in d.tiles}
        assert max(heights) - min(heights) <= 1

    def test_partition_validation(self):
        scan = make_scan()
        with pytest.raises(ValueError):
            decompose_gradient(
                scan, fov_for(scan), mesh=MeshLayout(2, 2), partition="zigzag"
            )

    def test_single_rank(self):
        scan = make_scan()
        d = decompose_gradient(scan, fov_for(scan), n_ranks=1)
        assert d.tiles[0].core == d.bounds
        assert len(d.tiles[0].probes) == scan.n_positions

    def test_reporting_helpers(self, decomp):
        assert decomp.max_probes_per_rank() >= 1
        assert 0.0 <= decomp.mean_halo_fraction() < 1.0


class TestHaloExchangeDecomposition:
    @pytest.fixture(scope="class")
    def decomp(self):
        scan = make_scan()
        return decompose_halo_exchange(
            scan, fov_for(scan), mesh=MeshLayout(2, 3), extra_rows=1,
            enforce_tile_constraint=False,
        )

    def test_extras_disjoint_from_own(self, decomp):
        for t in decomp.tiles:
            assert not set(t.probes) & set(t.extra_probes)

    def test_extras_are_nearby(self, decomp):
        """Extra probes' centers lie within the reach ring of the core."""
        reach = int(np.ceil(1 * decomp.scan.spec.step_px))
        for t in decomp.tiles:
            ring = t.core.expand(reach)
            for p in t.extra_probes:
                r, c = decomp.scan.centers[p]
                assert ring.contains_point(int(r), int(c))

    def test_interior_tiles_have_extras(self, decomp):
        """With overlapping scans every tile borders foreign probes."""
        assert all(len(t.extra_probes) > 0 for t in decomp.tiles)

    def test_halo_covers_extras_windows(self, decomp):
        for t in decomp.tiles:
            for p in t.all_probes:
                w = decomp.scan.window_of(p).clip(decomp.bounds)
                assert t.ext.contains(w)

    def test_more_extra_rows_more_probes(self):
        scan = make_scan()
        d1 = decompose_halo_exchange(
            scan, fov_for(scan), mesh=MeshLayout(2, 2), extra_rows=1,
            enforce_tile_constraint=False,
        )
        d2 = decompose_halo_exchange(
            scan, fov_for(scan), mesh=MeshLayout(2, 2), extra_rows=2,
            enforce_tile_constraint=False,
        )
        for t1, t2 in zip(d1.tiles, d2.tiles):
            assert len(t2.extra_probes) >= len(t1.extra_probes)

    def test_memory_redundancy_vs_gradient(self, decomp):
        """HVE assigns strictly more probes per rank than GD — the paper's
        memory argument (Sec. II-C)."""
        scan = decomp.scan
        gd = decompose_gradient(
            scan, (decomp.bounds.r1, decomp.bounds.c1), mesh=decomp.mesh
        )
        hve_total = sum(len(t.all_probes) for t in decomp.tiles)
        gd_total = sum(len(t.all_probes) for t in gd.tiles)
        assert hve_total > gd_total
        assert gd_total == scan.n_positions

    def test_tile_constraint_raises_for_tiny_tiles(self):
        """Small tiles + wide halos = the paper's NA regime."""
        scan = make_scan(grid=(8, 8), step=3.0, window=16)
        with pytest.raises(ScalabilityError):
            decompose_halo_exchange(
                scan,
                fov_for(scan),
                mesh=MeshLayout(6, 6),
                extra_rows=2,
                halo=20,
            )

    def test_extra_rows_validation(self):
        scan = make_scan()
        with pytest.raises(ValueError):
            decompose_halo_exchange(
                scan, fov_for(scan), mesh=MeshLayout(2, 2), extra_rows=-1
            )

    def test_zero_extra_rows_equals_gradient_probes(self):
        scan = make_scan()
        d = decompose_halo_exchange(
            scan, fov_for(scan), mesh=MeshLayout(2, 2), extra_rows=0,
            enforce_tile_constraint=False,
        )
        g = decompose_gradient(scan, fov_for(scan), mesh=MeshLayout(2, 2))
        for th, tg in zip(d.tiles, g.tiles):
            assert th.probes == tg.probes
            assert th.extra_probes == ()


class TestOrderingInvariant:
    """The ordered-interval property the pass proof needs (module docstring of
    ``repro.core.decomposition``)."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(2, 7),
        st.integers(1, 6),
        st.integers(6, 14),
    )
    def test_random_geometries_validate(
        self, mesh_r, mesh_c, grid, step, window
    ):
        scan = make_scan(grid=(grid, grid), step=float(step), window=window)
        fov = fov_for(scan, margin=3)
        decomp = decompose_gradient(
            scan, fov, mesh=MeshLayout(mesh_r, mesh_c)
        )
        # validate() ran inside the builder; re-run explicitly.
        decomp.validate()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 8))
    def test_fixed_halo_geometries_validate(self, mesh_r, mesh_c, halo):
        scan = make_scan(grid=(5, 5), step=3.0, window=10)
        decomp = decompose_gradient(
            scan, fov_for(scan, 3), mesh=MeshLayout(mesh_r, mesh_c), halo=halo
        )
        decomp.validate()


class TestFullScaleGeometry:
    """The paper's full-size decompositions stay cheap and balanced."""

    def test_large_4158_ranks(self):
        from repro.physics.dataset import large_pbtio3_spec

        spec = large_pbtio3_spec()
        scan = RasterScan(spec.scan_spec(), probe_window_px=spec.detector_px)
        d = decompose_gradient(
            scan, spec.object_shape, mesh=MeshLayout(63, 66), halo=60
        )
        counts = [len(t.probes) for t in d.tiles]
        assert sum(counts) == 16632
        assert min(counts) == max(counts) == 4  # perfectly balanced


class TestMeanHaloFraction:
    """Degenerate-geometry guards: no ZeroDivisionError, ever."""

    def test_regular_geometry_in_unit_interval(self):
        scan = make_scan()
        decomp = decompose_gradient(scan, fov_for(scan), mesh=MeshLayout(2, 2))
        assert 0.0 <= decomp.mean_halo_fraction() < 1.0

    def test_zero_area_extended_tile_contributes_zero(self):
        """A degenerate zero-area extended tile used to divide by zero;
        it has no halo, so its fraction is 0."""
        from repro.core.decomposition import Decomposition, RankTile

        scan = make_scan(grid=(2, 2))
        bounds = Rect(0, 20, 0, 20)
        empty = Rect(0, 0, 0, 0)
        tiles = [
            RankTile(rank=0, core=empty, ext=empty, probes=()),
            RankTile(
                rank=1, core=Rect(0, 20, 0, 20),
                ext=Rect(0, 20, 0, 20),
                probes=tuple(range(scan.n_positions)),
            ),
        ]
        decomp = Decomposition(
            mesh=MeshLayout(1, 2), bounds=bounds, tiles=tiles, scan=scan
        )
        assert decomp.mean_halo_fraction() == 0.0

    def test_empty_tile_list_is_zero(self):
        from repro.core.decomposition import Decomposition

        scan = make_scan(grid=(2, 2))
        decomp = Decomposition(
            mesh=MeshLayout(1, 1),
            bounds=Rect(0, 4, 0, 4),
            tiles=[],
            scan=scan,
        )
        assert decomp.mean_halo_fraction() == 0.0

    def test_single_coverage_tile_has_zero_fraction(self):
        """halo == ext - core == 0 when one tile covers everything."""
        scan = make_scan(grid=(2, 2), step=3.0, window=8)
        decomp = decompose_gradient(scan, fov_for(scan), n_ranks=1)
        assert decomp.mean_halo_fraction() == 0.0
