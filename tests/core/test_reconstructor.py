"""GradientDecompositionReconstructor — the headline correctness tests.

The anchor: synchronous mode with exact halos equals the serial full-batch
solver to floating-point tolerance at every rank count and planner.
"""

import numpy as np
import pytest

import repro
from repro.core.reconstructor import (
    GradientDecompositionReconstructor,
    ReconstructionResult,
    _round_chunks,
)
from repro.metrics.convergence import auc_cost
from repro.parallel.topology import MeshLayout
from tests.reference.serial import SerialReference


@pytest.fixture(scope="module")
def serial_result(small_dataset, small_lr):
    return SerialReference(iterations=3, lr=small_lr).reconstruct(
        small_dataset
    )


class TestSerialEquivalence:
    @pytest.mark.parametrize("n_ranks", [1, 2, 4, 6, 9])
    def test_sync_mode_matches_serial(
        self, small_dataset, small_lr, serial_result, n_ranks
    ):
        recon = GradientDecompositionReconstructor(
            n_ranks=n_ranks,
            iterations=3,
            lr=small_lr,
            mode="synchronous",
            halo="exact",
        )
        result = recon.reconstruct(small_dataset)
        np.testing.assert_allclose(
            result.volume, serial_result.volume, atol=1e-10
        )

    @pytest.mark.parametrize("planner", ["appp", "barrier", "allreduce"])
    def test_all_planners_match_serial(
        self, small_dataset, small_lr, serial_result, planner
    ):
        recon = GradientDecompositionReconstructor(
            n_ranks=4,
            iterations=3,
            lr=small_lr,
            mode="synchronous",
            planner=planner,
            halo="exact",
        )
        result = recon.reconstruct(small_dataset)
        np.testing.assert_allclose(
            result.volume, serial_result.volume, atol=1e-10
        )

    def test_sync_half_period_deterministic_and_convergent(
        self, small_dataset, small_lr
    ):
        """Sub-iteration rounds in synchronous mode behave like minibatch
        descent: deterministic for a fixed mesh, and convergent.  (The
        result legitimately depends on the probe partition, so no
        cross-rank-count equality is expected here — only the
        one-round-per-iteration case matches serial exactly.)"""
        recon = GradientDecompositionReconstructor(
            n_ranks=4,
            iterations=3,
            lr=small_lr,
            mode="synchronous",
            sync_period="half",
            halo="exact",
        )
        a = recon.reconstruct(small_dataset)
        b = recon.reconstruct(small_dataset)
        np.testing.assert_array_equal(a.volume, b.volume)
        assert a.history[-1] < a.history[0]

    def test_cost_history_matches_serial(
        self, small_dataset, small_lr, serial_result
    ):
        recon = GradientDecompositionReconstructor(
            n_ranks=4,
            iterations=3,
            lr=small_lr,
            mode="synchronous",
            halo="exact",
        )
        result = recon.reconstruct(small_dataset)
        np.testing.assert_allclose(
            result.history, serial_result.history, rtol=1e-9
        )


class TestAlg1Mode:
    def test_converges(self, small_dataset, small_lr):
        recon = GradientDecompositionReconstructor(
            n_ranks=4, iterations=5, lr=small_lr * 0.5, mode="alg1"
        )
        result = recon.reconstruct(small_dataset)
        assert result.history[-1] < 0.5 * result.history[0]

    def test_compensate_local_converges(self, small_dataset, small_lr):
        recon = GradientDecompositionReconstructor(
            n_ranks=4,
            iterations=5,
            lr=small_lr * 0.5,
            mode="alg1",
            compensate_local=True,
        )
        result = recon.reconstruct(small_dataset)
        assert result.history[-1] < 0.5 * result.history[0]

    @pytest.mark.parametrize("period", ["probe", "half", "iteration", 3])
    def test_sync_periods_run(self, tiny_dataset, tiny_lr, period):
        recon = GradientDecompositionReconstructor(
            n_ranks=4,
            iterations=2,
            lr=tiny_lr * 0.5,
            mode="alg1",
            sync_period=period,
        )
        result = recon.reconstruct(tiny_dataset)
        assert len(result.history) == 2
        assert np.isfinite(result.volume).all()

    def test_more_frequent_passes_more_messages(self, tiny_dataset, tiny_lr):
        msgs = {}
        for period in ("iteration", "probe"):
            recon = GradientDecompositionReconstructor(
                n_ranks=4,
                iterations=1,
                lr=tiny_lr * 0.5,
                sync_period=period,
            )
            msgs[period] = recon.reconstruct(tiny_dataset).messages
        assert msgs["probe"] > msgs["iteration"]

    def test_sync_period_trades_messages_not_convergence(self):
        """Messages fall with the period T while the best reduced T
        converges as well as per-probe passes (Sec. VI-F)."""
        spec = repro.scaled_pbtio3_spec(
            scan_grid=(9, 9), detector_px=20, n_slices=2, circle_overlap=0.78
        )
        dataset = repro.simulate_dataset(spec, seed=13)
        lr = repro.suggest_lr(dataset, alpha=0.3)
        runs = {
            period: GradientDecompositionReconstructor(
                mesh=MeshLayout(3, 3), iterations=6, lr=lr, mode="alg1",
                sync_period=period,
            ).reconstruct(dataset)
            for period in (1, 3, 9, "iteration")
        }
        assert runs[1].messages > runs[3].messages > runs[9].messages
        auc = {period: auc_cost(r.history) for period, r in runs.items()}
        assert min(auc[3], auc[9], auc["iteration"]) <= 1.05 * auc[1]

    @pytest.mark.slow
    def test_compensation_keeps_large_steps_stable(self):
        """Alg. 1 as printed applies each local gradient twice: at large
        steps it diverges or ends >= 10x worse than compensated."""
        spec = repro.scaled_pbtio3_spec(
            scan_grid=(12, 12), detector_px=20, n_slices=2, circle_overlap=0.8
        )
        dataset = repro.simulate_dataset(spec, seed=3)
        base_lr = repro.suggest_lr(dataset, 1.0)

        def final_cost(alpha, compensate):
            return GradientDecompositionReconstructor(
                mesh=MeshLayout(3, 3), iterations=8, lr=alpha * base_lr,
                mode="alg1", compensate_local=compensate,
            ).reconstruct(dataset).history[-1]

        compensated = [final_cost(a, True) for a in (0.1, 0.25, 0.4)]
        assert np.isfinite(compensated).all()
        printed = final_cost(0.4, False)
        assert not np.isfinite(printed) or printed > 10 * compensated[-1]


class TestConfiguration:
    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            GradientDecompositionReconstructor(n_ranks=2, mode="magic")

    def test_invalid_planner(self):
        with pytest.raises(ValueError):
            GradientDecompositionReconstructor(n_ranks=2, planner="carrier")

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            GradientDecompositionReconstructor(n_ranks=2, iterations=0)

    def test_invalid_sync_period(self, tiny_dataset):
        recon = GradientDecompositionReconstructor(
            n_ranks=2, sync_period="sometimes"
        )
        with pytest.raises(ValueError):
            recon.reconstruct(tiny_dataset)

    def test_explicit_mesh(self, tiny_dataset, tiny_lr):
        recon = GradientDecompositionReconstructor(
            mesh=MeshLayout(2, 2), iterations=1, lr=tiny_lr
        )
        result = recon.reconstruct(tiny_dataset)
        assert result.decomposition.mesh.n_ranks == 4


class TestRoundChunks:
    def test_iteration_is_single_round(self):
        rounds = _round_chunks([(0, 1, 2), (3, 4)], "iteration")
        assert len(rounds) == 1
        assert rounds[0] == [(0, 1, 2), (3, 4)]

    def test_half_is_two_rounds(self):
        rounds = _round_chunks([(0, 1, 2, 3), (4, 5)], "half")
        assert len(rounds) == 2
        assert rounds[0][0] == (0, 1)
        assert rounds[1][1] == ()

    def test_probe_is_per_probe(self):
        rounds = _round_chunks([(0, 1), (2,)], "probe")
        assert len(rounds) == 2
        assert rounds[0] == [(0,), (2,)]
        assert rounds[1] == [(1,), ()]

    def test_integer_period(self):
        rounds = _round_chunks([(0, 1, 2, 3, 4)], 2)
        assert [r[0] for r in rounds] == [(0, 1), (2, 3), (4,)]

    def test_every_probe_appears_once(self):
        probe_lists = [(0, 1, 2, 3, 4), (5, 6), ()]
        rounds = _round_chunks(probe_lists, 2)
        seen = [p for rnd in rounds for chunk in rnd for p in chunk]
        assert sorted(seen) == list(range(7))

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            _round_chunks([(0,)], 0)
        with pytest.raises(ValueError):
            _round_chunks([(0,)], "never")


class TestResult:
    def test_result_fields(self, tiny_dataset, tiny_lr):
        recon = GradientDecompositionReconstructor(
            n_ranks=4, iterations=2, lr=tiny_lr
        )
        result = recon.reconstruct(tiny_dataset)
        assert isinstance(result, ReconstructionResult)
        assert result.n_iterations == 2
        assert result.final_cost == result.history[-1]
        assert result.messages > 0
        assert result.message_bytes > 0
        assert len(result.peak_memory_per_rank) == 4
        assert result.peak_memory_mean > 0
        assert result.volume.shape == (
            tiny_dataset.n_slices,
            *tiny_dataset.object_shape,
        )

    def test_callback_invoked(self, tiny_dataset, tiny_lr):
        calls = []
        recon = GradientDecompositionReconstructor(
            n_ranks=2, iterations=3, lr=tiny_lr
        )
        recon.reconstruct(
            tiny_dataset, observers=[lambda ev: calls.append(ev.iteration)]
        )
        assert calls == [0, 1, 2]

    def test_schedule_reusable_for_timing(self, tiny_dataset):
        """The same schedule object feeds the event simulator — the
        one-program-two-interpreters contract."""
        recon = GradientDecompositionReconstructor(n_ranks=4, iterations=1)
        decomp = recon.decompose(tiny_dataset)
        schedule = recon.build_iteration_schedule(decomp)
        from repro.parallel.event_sim import EventSimulator
        from repro.parallel.network import NetworkModel
        from repro.parallel.topology import ClusterTopology

        class Unit:
            def gradient_seconds(self, rank, n):
                return float(n)

            def exchange_bytes(self, area):
                return float(area)

            def apply_seconds(self, area):
                return 0.0

            def update_seconds(self, rank):
                return 0.0

            def allreduce_bytes(self):
                return 1.0

        report = EventSimulator(
            NetworkModel(ClusterTopology(4)), Unit()
        ).run(schedule)
        assert report.makespan_s > 0
