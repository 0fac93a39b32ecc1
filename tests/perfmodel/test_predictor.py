"""Full-scale predictor: the shapes of Tables II/III and Fig. 7.

These tests encode the reproduction contract — who wins, by roughly what
factor, where crossovers fall — at the paper's actual scales.
"""

import pytest

from repro.perfmodel.memory_model import MemoryModel
from repro.perfmodel.predictor import NA, PerformancePredictor
from repro.physics.dataset import DatasetSpec
from repro.physics.dataset import large_pbtio3_spec, small_pbtio3_spec


@pytest.fixture(scope="module")
def small():
    return PerformancePredictor(small_pbtio3_spec())


@pytest.fixture(scope="module")
def large():
    return PerformancePredictor(large_pbtio3_spec())


@pytest.fixture(scope="module")
def table3_gd(large):
    return large.sweep([6, 54, 198, 462, 924, 4158], "gd")


@pytest.fixture(scope="module")
def table3_hve(large):
    return large.sweep([6, 54, 198, 462, 924], "hve")


@pytest.fixture(scope="module")
def table2_gd(small):
    return small.sweep([6, 24, 54, 126, 198, 462], "gd")


@pytest.fixture(scope="module")
def table2_hve(small):
    return small.sweep([6, 24, 54, 126], "hve")


class TestTable3GD:
    def test_all_feasible_to_4158(self, table3_gd):
        assert all(r.feasible for r in table3_gd)

    def test_memory_band_matches_paper(self, table3_gd):
        paper = {6: 9.14, 54: 1.54, 198: 0.66, 462: 0.42, 924: 0.32, 4158: 0.18}
        for row in table3_gd:
            assert float(row.memory_gb) == pytest.approx(
                paper[row.gpus], rel=0.45
            )

    def test_runtime_band_matches_paper(self, table3_gd):
        paper = {6: 5543.0, 54: 183.0, 198: 37.5, 462: 14.2, 924: 7.0, 4158: 2.2}
        for row in table3_gd:
            assert float(row.runtime_min) == pytest.approx(
                paper[row.gpus], rel=0.6
            )

    def test_runtime_monotone_decreasing(self, table3_gd):
        times = [float(r.runtime_min) for r in table3_gd]
        assert times == sorted(times, reverse=True)

    def test_superlinear_midrange(self, table3_gd):
        """Paper: 336-518% efficiency between 54 and 924 GPUs."""
        for row in table3_gd:
            if row.gpus in (54, 198, 462, 924):
                assert float(row.efficiency_pct) > 150.0

    def test_headline_memory_reduction(self, table3_gd):
        """Paper abstract: 51x memory reduction (6 -> 4158 GPUs)."""
        first = float(table3_gd[0].memory_gb)
        last = float(table3_gd[-1].memory_gb)
        assert 25 < first / last < 100

    def test_near_real_time_at_full_scale(self, table3_gd):
        """Paper: 2.2 minutes at 4158 GPUs."""
        assert float(table3_gd[-1].runtime_min) < 6.0


class TestTable3HVE:
    def test_na_beyond_462(self, table3_hve):
        by_gpus = {r.gpus: r for r in table3_hve}
        assert by_gpus[462].feasible
        assert not by_gpus[924].feasible

    def test_slower_than_gd_everywhere(self, table3_gd, table3_hve):
        gd = {r.gpus: float(r.runtime_min) for r in table3_gd}
        for row in table3_hve:
            if row.feasible and row.gpus in gd:
                assert float(row.runtime_min) > gd[row.gpus]

    def test_more_memory_than_gd(self, table3_gd, table3_hve):
        gd = {r.gpus: float(r.memory_gb) for r in table3_gd}
        for row in table3_hve:
            if row.feasible and row.gpus in gd:
                assert float(row.memory_gb) > 0.8 * gd[row.gpus]

    def test_scaling_stalls_at_462(self, table3_hve):
        """The paper's blow-up: 462 GPUs is NOT faster than 198."""
        by_gpus = {r.gpus: r for r in table3_hve}
        assert float(by_gpus[462].runtime_min) > 0.8 * float(
            by_gpus[198].runtime_min
        )

    def test_headline_scalability_factor(self, table3_gd, table3_hve):
        """Paper abstract: 9x more scalable (4158 vs 462)."""
        gd_max = max(r.gpus for r in table3_gd if r.feasible)
        hve_max = max(r.gpus for r in table3_hve if r.feasible)
        assert gd_max / hve_max == pytest.approx(9.0, rel=0.01)


class TestTable2:
    def test_gd_scales_to_462(self, table2_gd):
        assert all(r.feasible for r in table2_gd)

    def test_gd_memory_band(self, table2_gd):
        paper = {6: 2.53, 24: 1.20, 54: 0.58, 126: 0.39, 198: 0.31, 462: 0.23}
        for row in table2_gd:
            assert float(row.memory_gb) == pytest.approx(
                paper[row.gpus], rel=0.45
            )

    def test_gd_runtime_at_6(self, table2_gd):
        assert float(table2_gd[0].runtime_min) == pytest.approx(360, rel=0.3)

    def test_hve_na_at_126(self, table2_hve):
        """Paper Table II(b): works to 54 GPUs, NA at 126."""
        by_gpus = {r.gpus: r for r in table2_hve}
        assert by_gpus[54].feasible
        assert not by_gpus[126].feasible

    def test_hve_slower_than_gd(self, table2_gd, table2_hve):
        gd = {r.gpus: float(r.runtime_min) for r in table2_gd}
        for row in table2_hve:
            if row.feasible:
                assert float(row.runtime_min) > gd[row.gpus]


class TestBreakdowns:
    def test_gd_breakdown_populated(self, large):
        row = large.gd_row(54)
        assert float(row.compute_min) > 0
        assert float(row.wait_min) >= 0
        assert float(row.comm_min) >= 0

    def test_wait_decreases_with_scale(self, large):
        """Fig. 7b: waiting shrinks as GPUs increase."""
        w24 = float(large.gd_row(24).wait_min)
        w462 = float(large.gd_row(462).wait_min)
        assert w462 < w24

    def test_allreduce_comm_dominates_at_462(self, large):
        """Fig. 7b w/o APPP: communication rivals or exceeds compute."""
        report = large.gd_report(462, planner="allreduce")
        assert report.mean("comm_s") > report.mean("compute_s")

    def test_appp_comm_negligible_at_462(self, large):
        report = large.gd_report(462, planner="appp")
        assert report.mean("comm_s") < 0.15 * report.mean("compute_s")

    def test_appp_vs_allreduce_comm_ratio(self, large):
        """Paper: 16x less comm with APPP; we require >= 10x.  APPP
        also wins end to end over the barrier and all-reduce planners."""
        appp = large.gd_report(462, planner="appp")
        allr = large.gd_report(462, planner="allreduce")
        assert allr.mean("comm_s") / max(appp.mean("comm_s"), 1e-12) > 10.0
        assert appp.makespan_s < allr.makespan_s
        assert allr.message_bytes > appp.message_bytes
        barrier = large.gd_report(462, planner="barrier")
        assert appp.makespan_s <= barrier.makespan_s


class TestInterfaces:
    def test_sweep_unknown_algorithm(self, small):
        with pytest.raises(ValueError):
            small.sweep([6], "warp")

    def test_hve_feasibility_fields(self, small):
        feas = small.hve_feasibility(54)
        assert set(feas) >= {"feasible", "min_tile_dim", "hops"}
        assert feas["hops"] >= 1

    def test_efficiency_anchored_at_first_row(self, table3_gd):
        assert float(table3_gd[0].efficiency_pct) == pytest.approx(100.0)


class TestWeakScaling:
    """Extension: 36 probes per GPU; the scan grows with the GPU count."""

    def test_runtime_and_memory_stay_flat(self):
        makespans, mems = [], []
        for rows, cols in ((2, 3), (4, 6), (8, 12)):
            # 16 px steps over 1024 px windows, + 2 px margin.
            spec = DatasetSpec(
                "weak", (6 * rows, 6 * cols),
                (1010 + 96 * rows, 1010 + 96 * cols),
                n_slices=100, detector_px=1024, overlap_ratio=1 - 16 / 1024,
            )
            predictor = PerformancePredictor(spec)
            makespans.append(predictor.gd_report(rows * cols).makespan_s)
            decomp = predictor.gd_decomposition(rows * cols)
            mems.append(MemoryModel(spec).mean_bytes(decomp))
        # Pass chains lengthen with the mesh: >= 65% weak efficiency.
        assert all(makespans[0] / m > 0.65 for m in makespans)
        # Per-GPU memory must not grow with the problem.
        assert mems[-1] <= mems[0] and max(mems) < 3.0 * min(mems)
