"""Mixed-state reconstruction end to end.

The acceptance gates of the multi-mode refactor:

* ``probe_modes=1`` (or ``None``) is **bit-identical** to the scalar
  path at every layer — solver results, fingerprints, schedules.
* A pinned M=2 reconstruction is deterministic, and on a synthetic
  partially-coherent dataset (simulated with an incoherent 2-mode
  illumination) it reaches lower cost than the single-mode model.
* Parity survives the mode axis: batched vs per-position and serial vs
  process executor stay fingerprint-identical at M=2 (cross-product in
  the slow tier).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baseline.halo_exchange import HaloExchangeReconstructor
from repro.baseline.serial import SerialReconstructor
from repro.core.reconstructor import GradientDecompositionReconstructor
from repro.physics.dataset import scaled_pbtio3_spec, simulate_dataset
from repro.schedule.ops import OrthogonalizeProbe
from tests.helpers import assert_results_identical, result_fingerprint
from tests.reference.serial import SerialReference

LR = 0.02
ITERS = 3


@pytest.fixture(scope="module")
def coherent_dataset():
    spec = scaled_pbtio3_spec(
        scan_grid=(4, 4), detector_px=16, n_slices=2, overlap_ratio=0.7
    )
    return simulate_dataset(spec, seed=17)


@pytest.fixture(scope="module")
def partially_coherent_dataset():
    """Same acquisition, illuminated by the deterministic 2-mode stack:
    recorded intensity is the incoherent sum over modes."""
    spec = scaled_pbtio3_spec(
        scan_grid=(4, 4), detector_px=16, n_slices=2, overlap_ratio=0.7
    )
    return simulate_dataset(spec, seed=17, probe_modes=2)


def gd(**kw):
    kw.setdefault("n_ranks", 4)
    kw.setdefault("iterations", ITERS)
    kw.setdefault("lr", LR)
    kw.setdefault("mode", "synchronous")
    return GradientDecompositionReconstructor(**kw)


class TestSingleModeIsScalar:
    def test_gd_probe_modes_one_bit_identical(self, coherent_dataset):
        reference = gd(refine_probe=True).reconstruct(coherent_dataset)
        single = gd(refine_probe=True, probe_modes=1).reconstruct(
            coherent_dataset
        )
        assert_results_identical(reference, single)
        # The probe stays scalar — no (1, w, w) representation leaks out.
        assert single.probe.ndim == 2

    def test_serial_probe_modes_one_bit_identical(self, coherent_dataset):
        kw = dict(iterations=ITERS, lr=LR, refine_probe=True)
        reference = SerialReconstructor(**kw).reconstruct(coherent_dataset)
        single = SerialReconstructor(
            probe_modes=1, **kw
        ).reconstruct(coherent_dataset)
        assert_results_identical(reference, single)

    def test_hve_probe_modes_one_bit_identical(self, coherent_dataset):
        kw = dict(n_ranks=4, iterations=ITERS, lr=LR)
        reference = HaloExchangeReconstructor(**kw).reconstruct(
            coherent_dataset
        )
        single = HaloExchangeReconstructor(
            probe_modes=1, **kw
        ).reconstruct(coherent_dataset)
        assert_results_identical(reference, single)

    def test_no_orthogonalize_op_scheduled_at_single_mode(
        self, coherent_dataset
    ):
        for recon in (
            gd(refine_probe=True),
            gd(refine_probe=True, probe_modes=1),
        ):
            schedule = recon.build_iteration_schedule(
                recon.decompose(coherent_dataset)
            )
            assert "OrthogonalizeProbe" not in schedule.counts()

    def test_orthogonalize_scheduled_per_rank_at_multi_mode(
        self, coherent_dataset
    ):
        recon = gd(refine_probe=True, probe_modes=2)
        schedule = recon.build_iteration_schedule(
            recon.decompose(coherent_dataset)
        )
        ortho = [
            op for op in schedule if isinstance(op, OrthogonalizeProbe)
        ]
        assert len(ortho) == 4  # one per rank, after the probe update
        assert sorted(op.rank for op in ortho) == [0, 1, 2, 3]


class TestMixedStateReconstruction:
    def test_deterministic(self, partially_coherent_dataset):
        kw = dict(refine_probe=True, probe_modes=2)
        a = gd(**kw).reconstruct(partially_coherent_dataset)
        b = gd(**kw).reconstruct(partially_coherent_dataset)
        assert result_fingerprint(a) == result_fingerprint(b)

    def test_two_modes_beat_one_on_partially_coherent_data(
        self, partially_coherent_dataset
    ):
        single = gd(refine_probe=True).reconstruct(
            partially_coherent_dataset
        )
        mixed = gd(refine_probe=True, probe_modes=2).reconstruct(
            partially_coherent_dataset
        )
        assert mixed.history[-1] < single.history[-1]

    def test_probe_stack_shape_and_energy_order(
        self, partially_coherent_dataset
    ):
        result = gd(refine_probe=True, probe_modes=2).reconstruct(
            partially_coherent_dataset
        )
        w = partially_coherent_dataset.probe.window
        assert result.probe.shape == (2, w, w)
        powers = np.sum(np.abs(result.probe) ** 2, axis=(-2, -1))
        assert powers[0] >= powers[1]

    def test_serial_mixed_state_descends(self, partially_coherent_dataset):
        result = SerialReconstructor(
            iterations=ITERS, lr=LR, refine_probe=True, probe_modes=2
        ).reconstruct(partially_coherent_dataset)
        assert result.history[-1] < result.history[0]
        w = partially_coherent_dataset.probe.window
        assert result.probe.shape == (2, w, w)

    def test_hve_mixed_state_descends(self, partially_coherent_dataset):
        result = HaloExchangeReconstructor(
            n_ranks=4, iterations=ITERS, lr=LR, probe_modes=2
        ).reconstruct(partially_coherent_dataset)
        assert result.history[-1] < result.history[0]

    def test_gd_matches_serial_exactly(self, partially_coherent_dataset):
        # One rank, synchronous: the distributed path must equal the
        # hand-written serial sweep bit for bit — mode axis included.
        kw = dict(refine_probe=True, probe_modes=2)
        distributed = gd(n_ranks=1, **kw).reconstruct(
            partially_coherent_dataset
        )
        serial = SerialReference(
            iterations=ITERS, lr=LR, scheme="batch", **kw
        ).reconstruct(partially_coherent_dataset)
        np.testing.assert_array_equal(
            distributed.volume, serial.volume
        )
        np.testing.assert_array_equal(distributed.probe, serial.probe)

    def test_validation(self):
        with pytest.raises(ValueError, match="probe_modes"):
            gd(probe_modes=0)
        with pytest.raises(ValueError, match="probe_modes"):
            SerialReconstructor(probe_modes=-1)
        with pytest.raises(ValueError, match="probe_modes"):
            HaloExchangeReconstructor(probe_modes=0)


class TestMixedStateParity:
    def test_batched_matches_per_position(
        self, partially_coherent_dataset
    ):
        kw = dict(refine_probe=True, probe_modes=2)
        reference = gd(**kw).reconstruct(partially_coherent_dataset)
        batched = gd(batch_size=3, **kw).reconstruct(
            partially_coherent_dataset
        )
        assert_results_identical(reference, batched)

    def test_process_executor_matches_serial(
        self, partially_coherent_dataset
    ):
        kw = dict(refine_probe=True, probe_modes=2)
        reference = gd(**kw).reconstruct(partially_coherent_dataset)
        processed = gd(
            executor="process", runtime_workers=2, **kw
        ).reconstruct(partially_coherent_dataset)
        assert_results_identical(reference, processed)

    @pytest.mark.slow
    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("solver", ["gd", "hve", "serial"])
    def test_solver_executor_cross_product(
        self, partially_coherent_dataset, solver, executor
    ):
        def run(executor_name):
            if solver == "gd":
                return gd(
                    refine_probe=True,
                    probe_modes=2,
                    executor=executor_name,
                    runtime_workers=2 if executor_name == "process" else None,
                ).reconstruct(partially_coherent_dataset)
            if solver == "hve":
                return HaloExchangeReconstructor(
                    n_ranks=4,
                    iterations=ITERS,
                    lr=LR,
                    probe_modes=2,
                    executor=executor_name,
                    runtime_workers=2 if executor_name == "process" else None,
                ).reconstruct(partially_coherent_dataset)
            if executor_name == "process":
                pytest.skip("serial solver has no executor axis")
            return SerialReconstructor(
                iterations=ITERS,
                lr=LR,
                refine_probe=True,
                probe_modes=2,
            ).reconstruct(partially_coherent_dataset)

        reference = run("serial")
        candidate = run(executor)
        assert_results_identical(reference, candidate)


class TestWarmStart:
    def test_scalar_probe_expands_deterministically(
        self, partially_coherent_dataset
    ):
        # Warm-starting an M=2 run from a scalar probe must equal the
        # cold start (which expands the dataset probe the same way).
        kw = dict(refine_probe=True, probe_modes=2)
        cold = gd(**kw).reconstruct(partially_coherent_dataset)
        warm = gd(**kw).reconstruct(
            partially_coherent_dataset,
            initial_probe=partially_coherent_dataset.probe.array,
        )
        assert_results_identical(cold, warm)

    def test_stack_round_trips_through_resume_seed(
        self, partially_coherent_dataset
    ):
        # Feeding a run's final (M, w, w) stack back as initial_probe
        # continues from it exactly: iterations compose.
        kw = dict(refine_probe=True, probe_modes=2)
        full = gd(iterations=4, **kw).reconstruct(
            partially_coherent_dataset
        )
        first = gd(iterations=2, **kw).reconstruct(
            partially_coherent_dataset
        )
        second = gd(iterations=2, **kw).reconstruct(
            partially_coherent_dataset,
            initial_probe=first.probe,
            initial_volume=first.volume,
        )
        np.testing.assert_array_equal(second.volume, full.volume)
        np.testing.assert_array_equal(second.probe, full.probe)
