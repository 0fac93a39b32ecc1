"""Joint probe refinement (extension beyond the paper).

The probe is one small global array, so its gradient is synchronized with
an all-reduce (cheap — unlike the volume gradient the paper's passes
exist for).  The anchor test: distributed synchronous refinement equals
serial refinement to floating point.

Plain gradient descent on the probe converges slowly (the amplitude cost
is rugged in probe space); assertions target correctness — descent
direction, consensus equivalence, accounting — not recovery speed.
"""

import numpy as np
import pytest

from repro.baseline.serial import SerialReconstructor
from repro.core.reconstructor import GradientDecompositionReconstructor
from repro.physics.dataset import (
    scaled_pbtio3_spec,
    simulate_dataset,
    suggest_lr,
)
from repro.physics.probe import ProbeSpec, make_probe
from tests.reference.serial import SerialReference


@pytest.fixture(scope="module")
def workload():
    spec = scaled_pbtio3_spec(
        scan_grid=(5, 5), detector_px=20, n_slices=2, overlap_ratio=0.72
    )
    dataset = simulate_dataset(spec, seed=31)
    bad_spec = ProbeSpec(
        window=spec.detector_px,
        defocus_pm=spec.defocus_pm * 1.3,
        pixel_size_pm=spec.pixel_size_pm,
        aperture_rad=spec.aperture_rad,
    )
    bad_probe = make_probe(bad_spec).array
    return dataset, suggest_lr(dataset, 0.4), bad_probe


class TestSerialRefinement:
    def test_probe_only_descends(self, workload):
        """Object frozen at ground truth: probe updates must decrease the
        cost monotonically at a stable step size."""
        dataset, _, bad_probe = workload
        result = SerialReconstructor(
            iterations=8, lr=0.0, refine_probe=True, probe_lr=2.0 / 25
        ).reconstruct(
            dataset,
            initial_probe=bad_probe,
            initial_volume=dataset.ground_truth,
        )
        assert result.history[-1] < result.history[0]
        assert all(
            b <= a * (1 + 1e-9)
            for a, b in zip(result.history, result.history[1:])
        )

    def test_probe_returned_only_when_refining(self, workload):
        dataset, lr, bad_probe = workload
        off = SerialReconstructor(iterations=1, lr=lr).reconstruct(dataset)
        on = SerialReconstructor(
            iterations=1, lr=lr, refine_probe=True
        ).reconstruct(dataset, initial_probe=bad_probe)
        assert off.probe is None
        assert on.probe is not None
        assert on.probe.shape == bad_probe.shape

    def test_probe_moves_during_refinement(self, workload):
        dataset, lr, bad_probe = workload
        result = SerialReconstructor(
            iterations=3, lr=lr, refine_probe=True
        ).reconstruct(dataset, initial_probe=bad_probe)
        assert not np.allclose(result.probe, bad_probe)

    def test_probe_lr_validation(self):
        with pytest.raises(ValueError):
            SerialReconstructor(refine_probe=True, probe_lr=-0.1)

    def test_true_probe_stays_put(self, workload):
        """Starting at the true probe and ground-truth object, the probe
        gradient is ~zero: refinement must not wander off."""
        dataset, _, _ = workload
        result = SerialReconstructor(
            iterations=3, lr=0.0, refine_probe=True, probe_lr=1.0 / 25
        ).reconstruct(dataset, initial_volume=dataset.ground_truth)
        drift = np.abs(result.probe - dataset.probe.array).max()
        assert drift < 1e-3


class TestDistributedRefinement:
    def test_matches_serial_exactly(self, workload):
        """The consensus (all-reduced) probe gradient makes distributed
        refinement bit-equivalent to serial in synchronous mode."""
        dataset, lr, bad_probe = workload
        serial = SerialReference(
            iterations=4, lr=lr, refine_probe=True
        ).reconstruct(dataset, initial_probe=bad_probe)
        dist = GradientDecompositionReconstructor(
            n_ranks=4, iterations=4, lr=lr, mode="synchronous",
            refine_probe=True,
        ).reconstruct(dataset, initial_probe=bad_probe)
        np.testing.assert_allclose(dist.volume, serial.volume, atol=1e-10)
        np.testing.assert_allclose(dist.probe, serial.probe, atol=1e-12)

    def test_rank_count_invariance(self, workload):
        dataset, lr, bad_probe = workload
        probes = []
        for n_ranks in (2, 6):
            result = GradientDecompositionReconstructor(
                n_ranks=n_ranks, iterations=3, lr=lr, mode="synchronous",
                refine_probe=True,
            ).reconstruct(dataset, initial_probe=bad_probe)
            probes.append(result.probe)
        np.testing.assert_allclose(probes[0], probes[1], atol=1e-12)

    def test_alg1_mode_runs_finite(self, workload):
        dataset, lr, bad_probe = workload
        result = GradientDecompositionReconstructor(
            n_ranks=4, iterations=3, lr=lr * 0.5, mode="alg1",
            refine_probe=True,
        ).reconstruct(dataset, initial_probe=bad_probe)
        assert np.isfinite(result.volume).all()
        assert np.isfinite(result.probe).all()

    def test_probe_sync_traffic_accounted(self, workload):
        dataset, lr, _ = workload
        with_ref = GradientDecompositionReconstructor(
            n_ranks=4, iterations=2, lr=lr, refine_probe=True
        ).reconstruct(dataset)
        without = GradientDecompositionReconstructor(
            n_ranks=4, iterations=2, lr=lr
        ).reconstruct(dataset)
        assert with_ref.messages > without.messages
        # One small all-reduce per iteration: bounded overhead.
        assert with_ref.messages - without.messages <= without.messages
        extra_bytes = with_ref.message_bytes - without.message_bytes
        assert extra_bytes < 0.5 * without.message_bytes

    def test_schedule_contains_probe_ops(self, workload):
        dataset, lr, _ = workload
        recon = GradientDecompositionReconstructor(
            n_ranks=4, iterations=1, lr=lr, refine_probe=True
        )
        decomp = recon.decompose(dataset)
        counts = recon.build_iteration_schedule(decomp).counts()
        assert counts["ProbeSync"] == 1
        assert counts["ApplyProbeUpdate"] == 4


class TestWarmStart:
    def test_initial_volume_roundtrip(self, workload):
        """Zero iterations of movement: warm-starting from a volume and
        running with lr=0 returns the same volume."""
        dataset, _, _ = workload
        result = GradientDecompositionReconstructor(
            n_ranks=4, iterations=1, lr=0.0, mode="synchronous"
        ).reconstruct(dataset, initial_volume=dataset.ground_truth)
        np.testing.assert_allclose(
            result.volume, dataset.ground_truth, atol=1e-12
        )

    def test_checkpoint_restart_equals_straight_run(self, workload):
        """iterations=4 equals 2+2 with a volume checkpoint between —
        the restart pathway the io module builds on."""
        dataset, lr, _ = workload
        straight = SerialReconstructor(iterations=4, lr=lr).reconstruct(
            dataset
        )
        first = SerialReconstructor(iterations=2, lr=lr).reconstruct(dataset)
        second = SerialReconstructor(iterations=2, lr=lr).reconstruct(
            dataset, initial_volume=first.volume
        )
        np.testing.assert_allclose(
            second.volume, straight.volume, atol=1e-12
        )

    def test_initial_volume_shape_validated(self, workload):
        dataset, lr, _ = workload
        with pytest.raises(ValueError):
            GradientDecompositionReconstructor(
                n_ranks=2, iterations=1, lr=lr
            ).reconstruct(
                dataset, initial_volume=np.ones((1, 4, 4), dtype=complex)
            )
