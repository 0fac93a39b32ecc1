"""Dataset/result persistence."""

import zipfile

import numpy as np
import pytest

from repro import ReconstructionConfig, reconstruct
from repro.api import CheckpointPolicy
from repro.baseline.serial import SerialReconstructor
from repro.core.reconstructor import GradientDecompositionReconstructor
from repro.io import load_dataset, load_result, save_dataset, save_result
from repro.physics.dataset import suggest_lr

from tests.helpers import deflate_archive, zip_compress_types


class TestDatasetRoundtrip:
    def test_amplitudes_and_spec_survive(self, tiny_dataset, tmp_path):
        path = save_dataset(tmp_path / "ds.npz", tiny_dataset)
        loaded = load_dataset(path)
        np.testing.assert_array_equal(
            loaded.amplitudes, tiny_dataset.amplitudes
        )
        assert loaded.spec == tiny_dataset.spec
        np.testing.assert_array_equal(
            loaded.probe.array, tiny_dataset.probe.array
        )

    def test_scan_geometry_rebuilt(self, tiny_dataset, tmp_path):
        path = save_dataset(tmp_path / "ds.npz", tiny_dataset)
        loaded = load_dataset(path)
        assert loaded.scan.n_positions == tiny_dataset.scan.n_positions
        for a, b in zip(loaded.scan.windows, tiny_dataset.scan.windows):
            assert a == b

    def test_ground_truth_optional(self, tiny_dataset, tmp_path):
        path = save_dataset(
            tmp_path / "nogt.npz", tiny_dataset, include_ground_truth=False
        )
        loaded = load_dataset(path)
        assert loaded.ground_truth is None

    def test_loaded_dataset_reconstructs_identically(
        self, tiny_dataset, tiny_lr, tmp_path
    ):
        """The archive round trip is semantically lossless: a solver run
        on the loaded dataset equals a run on the original."""
        path = save_dataset(tmp_path / "ds.npz", tiny_dataset)
        loaded = load_dataset(path)
        recon = GradientDecompositionReconstructor(
            n_ranks=4, iterations=2, lr=tiny_lr
        )
        a = recon.reconstruct(tiny_dataset)
        b = recon.reconstruct(loaded)
        np.testing.assert_array_equal(a.volume, b.volume)


class TestResultRoundtrip:
    def test_fields_survive(self, tiny_dataset, tiny_lr, tmp_path):
        result = GradientDecompositionReconstructor(
            n_ranks=4, iterations=3, lr=tiny_lr
        ).reconstruct(tiny_dataset)
        path = save_result(tmp_path / "rec.npz", result)
        loaded = load_result(path)
        np.testing.assert_array_equal(loaded.volume, result.volume)
        assert loaded.history == pytest.approx(result.history)
        assert loaded.messages == result.messages
        assert loaded.n_ranks == 4
        assert loaded.probe is None
        assert loaded.final_cost == pytest.approx(result.final_cost)

    def test_probe_persisted_when_refined(
        self, tiny_dataset, tiny_lr, tmp_path
    ):
        result = GradientDecompositionReconstructor(
            n_ranks=2, iterations=1, lr=tiny_lr, refine_probe=True
        ).reconstruct(tiny_dataset)
        loaded = load_result(save_result(tmp_path / "rp.npz", result))
        np.testing.assert_array_equal(loaded.probe, result.probe)

    def test_checkpoint_restart_through_disk(
        self, tiny_dataset, tiny_lr, tmp_path
    ):
        straight = SerialReconstructor(iterations=4, lr=tiny_lr).reconstruct(
            tiny_dataset
        )
        half = SerialReconstructor(iterations=2, lr=tiny_lr).reconstruct(
            tiny_dataset
        )
        loaded = load_result(save_result(tmp_path / "half.npz", half))
        resumed = SerialReconstructor(iterations=2, lr=tiny_lr).reconstruct(
            tiny_dataset, initial_volume=loaded.volume
        )
        np.testing.assert_allclose(
            resumed.volume, straight.volume, atol=1e-12
        )


class TestProbeShapeDiscrimination:
    """Mixed-state archives: shape is the scalar-vs-stack discriminator
    (legacy 2-D probes mean M=1; ``(M, w, w)`` stacks round-trip as
    stacks) — the contract ``as_mode_stack`` normalizes against."""

    def test_scalar_probe_stays_2d(self, tiny_dataset, tiny_lr, tmp_path):
        result = GradientDecompositionReconstructor(
            n_ranks=2, iterations=1, lr=tiny_lr, refine_probe=True
        ).reconstruct(tiny_dataset)
        loaded = load_result(save_result(tmp_path / "scal.npz", result))
        w = tiny_dataset.probe.window
        assert loaded.probe.shape == (w, w)
        from repro.physics.probe import as_mode_stack

        assert as_mode_stack(loaded.probe).shape == (1, w, w)

    def test_mode_stack_round_trips_3d(
        self, tiny_dataset, tiny_lr, tmp_path
    ):
        result = GradientDecompositionReconstructor(
            n_ranks=2, iterations=1, lr=tiny_lr,
            refine_probe=True, probe_modes=2,
        ).reconstruct(tiny_dataset)
        w = tiny_dataset.probe.window
        assert result.probe.shape == (2, w, w)
        loaded = load_result(save_result(tmp_path / "stk.npz", result))
        assert loaded.probe.shape == (2, w, w)
        np.testing.assert_array_equal(loaded.probe, result.probe)

    def test_mixed_state_restart_through_disk(
        self, tiny_dataset, tiny_lr, tmp_path
    ):
        kw = dict(n_ranks=2, lr=tiny_lr, mode="synchronous",
                  refine_probe=True, probe_modes=2)
        straight = GradientDecompositionReconstructor(
            iterations=4, **kw
        ).reconstruct(tiny_dataset)
        half = GradientDecompositionReconstructor(
            iterations=2, **kw
        ).reconstruct(tiny_dataset)
        loaded = load_result(save_result(tmp_path / "half2.npz", half))
        resumed = GradientDecompositionReconstructor(
            iterations=2, **kw
        ).reconstruct(
            tiny_dataset,
            initial_probe=loaded.probe,
            initial_volume=loaded.volume,
        )
        np.testing.assert_array_equal(resumed.volume, straight.volume)
        np.testing.assert_array_equal(resumed.probe, straight.probe)


class TestArchiveFormat:
    """Every archive is written with stored (uncompressed) members, and
    deflated archives from before the switch still load unchanged."""

    def test_dataset_members_are_stored(self, tiny_dataset, tmp_path):
        path = save_dataset(tmp_path / "ds.npz", tiny_dataset)
        assert zip_compress_types(path) == {zipfile.ZIP_STORED}

    def test_result_members_are_stored(
        self, tiny_dataset, tiny_lr, tmp_path
    ):
        result = GradientDecompositionReconstructor(
            n_ranks=2, iterations=1, lr=tiny_lr, refine_probe=True
        ).reconstruct(tiny_dataset)
        path = save_result(tmp_path / "rec.npz", result)
        assert zip_compress_types(path) == {zipfile.ZIP_STORED}

    def test_checkpoint_members_are_stored(
        self, tiny_dataset, tiny_lr, tmp_path
    ):
        config = ReconstructionConfig(
            "gd", {"n_ranks": 2, "iterations": 2, "lr": tiny_lr}
        )
        policy = CheckpointPolicy(tmp_path / "ck", every=1, config=config)
        reconstruct(tiny_dataset, config, observers=[policy])
        assert len(policy.saved_paths) == 2
        for path in policy.saved_paths:
            assert zip_compress_types(path) == {zipfile.ZIP_STORED}

    def test_deflated_dataset_loads_identically(
        self, tiny_dataset, tmp_path
    ):
        path = save_dataset(tmp_path / "ds.npz", tiny_dataset)
        stored = load_dataset(path)
        deflate_archive(path)
        legacy = load_dataset(path)
        assert legacy.spec == stored.spec
        np.testing.assert_array_equal(legacy.amplitudes, stored.amplitudes)
        np.testing.assert_array_equal(
            legacy.probe.array, stored.probe.array
        )
        np.testing.assert_array_equal(
            legacy.ground_truth, stored.ground_truth
        )

    def test_deflated_result_loads_identically(
        self, tiny_dataset, tiny_lr, tmp_path
    ):
        result = GradientDecompositionReconstructor(
            n_ranks=2, iterations=2, lr=tiny_lr, refine_probe=True
        ).reconstruct(tiny_dataset)
        config = ReconstructionConfig(
            "gd", {"n_ranks": 2, "iterations": 2, "lr": tiny_lr}
        )
        path = save_result(tmp_path / "rec.npz", result, config=config)
        stored = load_result(path)
        deflate_archive(path)
        legacy = load_result(path)
        np.testing.assert_array_equal(legacy.volume, stored.volume)
        np.testing.assert_array_equal(legacy.probe, stored.probe)
        assert legacy.history == stored.history
        assert legacy.messages == stored.messages
        assert legacy.message_bytes == stored.message_bytes
        assert legacy.peak_memory_per_rank == stored.peak_memory_per_rank
        assert legacy.n_ranks == stored.n_ranks
        assert legacy.config == stored.config


class TestValidation:
    def test_kind_mismatch_rejected(self, tiny_dataset, tiny_lr, tmp_path):
        ds_path = save_dataset(tmp_path / "ds.npz", tiny_dataset)
        with pytest.raises(ValueError, match="archive"):
            load_result(ds_path)
        result = GradientDecompositionReconstructor(
            n_ranks=2, iterations=1, lr=tiny_lr
        ).reconstruct(tiny_dataset)
        rec_path = save_result(tmp_path / "rec.npz", result)
        with pytest.raises(ValueError, match="archive"):
            load_dataset(rec_path)

    def test_random_npz_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(ValueError, match="not a repro archive"):
            load_dataset(path)
