"""Experiment harness: every paper artifact regenerates with the paper's
qualitative shape.  (Full-size scaled-down variants keep this fast.)"""

import numpy as np
import pytest

from repro.experiments import (
    run_fig7a,
    run_fig7b,
    run_fig8,
    run_fig9,
    run_table1,
    run_table2,
    run_table3,
)
from repro.parallel.topology import MeshLayout


class TestTable1:
    def test_matches_paper_exactly(self):
        result = run_table1()
        assert result.matches_paper()

    def test_format_contains_both_datasets(self):
        text = run_table1().format()
        assert "pbtio3-small" in text
        assert "pbtio3-large" in text
        assert "16632" in text


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table2()

    def test_gd_rows_complete(self, result):
        assert [r.gpus for r in result.gd_rows] == [6, 24, 54, 126, 198, 462]
        assert all(r.feasible for r in result.gd_rows)

    def test_hve_na_row(self, result):
        by_gpus = {r.gpus: r for r in result.hve_rows}
        assert not by_gpus[126].feasible

    def test_paper_bands(self, result):
        """Paper: 360 min at 6 GPUs, 11x less memory at 462."""
        first, last = result.gd_rows[0], result.gd_rows[-1]
        assert 200 < float(first.runtime_min) < 520
        assert 5 < float(first.memory_gb) / float(last.memory_gb) < 25

    def test_format_shows_paper_columns(self, result):
        text = result.format()
        assert "Table II(a)" in text
        assert "Table II(b)" in text
        assert "NA" in text


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table3()

    def test_headline_factors(self, result):
        assert result.scalability_factor() == pytest.approx(9.0, rel=0.01)
        assert result.memory_reduction_factor() > 25
        assert result.speed_factor() > 10
        # Paper: 336% / 509% efficiency at 54 / 462 GPUs, 2.2 min at 4158.
        assert all(r.feasible for r in result.gd_rows)
        eff = {r.gpus: float(r.efficiency_pct) for r in result.gd_rows}
        assert eff[54] > 150 and eff[462] > 150
        assert float(result.gd_rows[-1].runtime_min) < 6.0

    def test_format(self, result):
        assert "Table III(a)" in result.format()


class TestFig7a:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig7a()

    def test_two_series(self, result):
        assert {s.label for s in result.series} == {
            "small Lead Titanate",
            "large Lead Titanate",
        }

    def test_superlinear_region_large(self, result):
        pts = result.superlinear_points("large Lead Titanate")
        assert 54 in pts and 462 in pts

    def test_runtimes_fall_and_small_tracks_ideal(self, result):
        for s in result.series:
            assert s.runtime_min == sorted(s.runtime_min, reverse=True)
        small = result.series[0]
        ideal = small.ideal_runtime_min()
        assert min(t / i for t, i in zip(small.runtime_min, ideal)) < 1.2

    def test_ideal_line_anchored(self, result):
        s = result.series[0]
        assert s.ideal_runtime_min()[0] == pytest.approx(s.runtime_min[0])

    def test_format(self, result):
        assert "Fig. 7a" in result.format()


class TestFig7b:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig7b(gpu_counts=(24, 54, 198, 462))

    def test_both_planners_present(self, result):
        planners = {r.planner for r in result.rows}
        assert planners == {"appp", "w/o appp"}

    def test_comm_ratio_at_462(self, result):
        """Paper: 16x less communication with APPP (ours is larger)."""
        assert result.comm_ratio(462) > 10.0

    def test_wait_decreases(self, result):
        waits = result.wait_series("appp")
        assert waits[462] < waits[24]

    def test_without_appp_comm_dominates_at_462(self, result):
        row = next(
            r
            for r in result.rows
            if r.gpus == 462 and r.planner == "w/o appp"
        )
        assert row.comm_min > row.compute_min

    def test_appp_total_always_wins(self, result):
        for gpus in (54, 462):
            rows = {r.planner: r for r in result.rows if r.gpus == gpus}
            assert rows["appp"].total_min < rows["w/o appp"].total_min

    def test_format(self, result):
        assert "Fig. 7b" in result.format()


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        # Smaller than the default experiment to keep CI fast.
        return run_fig8(mesh=MeshLayout(3, 3), iterations=8, inner_sweeps=8)

    def test_hve_has_seams(self, result):
        assert result.hve_has_seams
        assert result.seam_hve > result.seam_gd

    def test_gd_seam_free(self, result):
        assert result.gd_seam_free
        assert abs(result.seam_gd - result.seam_serial) < 0.25

    @pytest.mark.slow
    def test_default_run_has_paper_shape(self):
        result = run_fig8()
        assert result.hve_has_seams
        assert result.gd_seam_free

    def test_volumes_returned(self, result):
        assert result.volume_gd.shape == result.volume_hve.shape
        assert np.isfinite(result.volume_gd).all()

    def test_format(self, result):
        text = result.format()
        assert "Halo Voxel Exchange" in text
        assert "Gradient Decomposition" in text


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig9(mesh=MeshLayout(3, 3), iterations=6)

    def test_three_frequencies(self, result):
        assert set(result.histories) == {
            "every probe location",
            "twice per iteration",
            "once per iteration",
        }

    def test_all_converge(self, result):
        for history in result.histories.values():
            assert history[-1] < history[0]

    def test_reduced_frequency_wins(self, result):
        assert result.reduced_frequency_wins()

    def test_communication_savings(self, result):
        assert result.communication_savings() > 2.0
        assert result.communication_savings() > 3.0

    @pytest.mark.slow
    def test_paper_mesh(self):  # 42 ranks (6x7)
        result = run_fig9(iterations=8)
        assert result.reduced_frequency_wins()
        assert result.communication_savings() > 2.0
        assert all(h[-1] < h[0] for h in result.histories.values())

    def test_format(self, result):
        assert "Fig. 9" in result.format()
