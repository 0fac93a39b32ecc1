"""Config + CLI threading of the data fields (data_source /
batch_size / prefetch): JSON round trips, registry injection, the
``store`` subcommand, and end-to-end replay parity."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import ReconstructionConfig, reconstruct
from repro.api.registry import SolverCapabilityError, solver_from_config
from repro.cli import main
from repro.data import ENV_BATCH_SIZE, ChunkedNpzStore
from repro.io import load_result


class TestConfigFields:
    def test_json_round_trip(self):
        config = ReconstructionConfig(
            "gd",
            {"n_ranks": 4, "iterations": 2, "lr": 0.02},
            data_source="meas.npz",
            batch_size=8,
            prefetch=True,
        )
        clone = ReconstructionConfig.from_json(config.to_json())
        assert clone == config
        assert clone.data_source == "meas.npz"
        assert clone.batch_size == 8
        assert clone.prefetch is True

    def test_pre_data_payloads_load_as_ambient(self):
        payload = {"solver": "gd", "solver_params": {"iterations": 2}}
        config = ReconstructionConfig.from_dict(payload)
        assert config.data_source is None
        assert config.batch_size is None
        assert config.prefetch is None

    @pytest.mark.parametrize(
        "field, value",
        [
            ("data_source", ""),
            ("batch_size", 0),
            ("batch_size", True),
            ("prefetch", "yes"),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            ReconstructionConfig("gd", **{field: value})

    def test_with_data_derivation(self):
        base = ReconstructionConfig("gd", batch_size=4)
        derived = base.with_data(data_source="m.npz", prefetch=True)
        assert derived.batch_size == 4  # None keeps current
        assert derived.data_source == "m.npz"
        assert derived.prefetch is True
        assert base.data_source is None  # frozen original untouched

    def test_injection_into_solver(self):
        config = ReconstructionConfig(
            "serial", {"iterations": 2, "lr": 0.02}, batch_size=6
        )
        solver = solver_from_config(config)
        # It reaches the one-rank solver whose options the engine reads.
        assert solver.solver.options.batch_size == 6

    def test_injection_rejected_without_opt_in(self):
        from repro.api.registry import register_solver, unregister_solver

        @register_solver("data-less")
        class DataLess:
            accepted_params = frozenset({"iterations"})

            def __init__(self, iterations=1):
                self.iterations = iterations

            def reconstruct(self, dataset, *, observers=(),
                            initial_probe=None, initial_volume=None):
                raise NotImplementedError

        try:
            config = ReconstructionConfig("data-less", batch_size=4)
            with pytest.raises(SolverCapabilityError, match="batch_size"):
                solver_from_config(config)
        finally:
            unregister_solver("data-less")

    def test_solver_params_spelling_must_agree(self):
        config = ReconstructionConfig(
            "gd", {"batch_size": 2}, batch_size=4
        )
        with pytest.raises(ValueError, match="batch_size"):
            solver_from_config(config)


@pytest.fixture()
def dataset_path(tmp_path):
    path = tmp_path / "ds.npz"
    assert main([
        "simulate", "--grid", "4x4", "--detector", "16",
        "--slices", "2", "--seed", "3", "--out", str(path),
    ]) == 0
    return path


class TestStoreSubcommand:
    def test_writes_readable_store(self, dataset_path, tmp_path, capsys):
        out = tmp_path / "meas.npz"
        assert main([
            "store", "--dataset", str(dataset_path),
            "--chunk-size", "5", "--out", str(out),
        ]) == 0
        assert "16 probes in 4 chunks" in capsys.readouterr().out
        from repro.io import load_dataset

        dataset = load_dataset(dataset_path)
        with ChunkedNpzStore(out) as store:
            assert store.n_probes == 16
            np.testing.assert_array_equal(
                store.read(7), dataset.amplitudes[7]
            )

    def test_bad_chunk_size_errors_cleanly(
        self, dataset_path, tmp_path, capsys
    ):
        assert main([
            "store", "--dataset", str(dataset_path),
            "--chunk-size", "0", "--out", str(tmp_path / "m.npz"),
        ]) == 2
        assert "chunk_size" in capsys.readouterr().err


class TestReconstructFlags:
    def _store(self, dataset_path, tmp_path):
        out = tmp_path / "meas.npz"
        assert main([
            "store", "--dataset", str(dataset_path),
            "--chunk-size", "4", "--out", str(out),
        ]) == 0
        return out

    def test_streamed_run_matches_memory_and_embeds_config(
        self, dataset_path, tmp_path, capsys
    ):
        store = self._store(dataset_path, tmp_path)
        mem_out = tmp_path / "mem.npz"
        str_out = tmp_path / "streamed.npz"
        base = [
            "reconstruct", "--dataset", str(dataset_path),
            "--ranks", "4", "--iterations", "2", "--mode", "synchronous",
        ]
        assert main(base + ["--out", str(mem_out)]) == 0
        assert main(base + [
            "--data-store", str(store), "--batch-size", "4",
            "--prefetch", "--out", str(str_out),
        ]) == 0
        assert "batch=4" in capsys.readouterr().out

        memory = load_result(mem_out)
        streamed = load_result(str_out)
        np.testing.assert_array_equal(memory.volume, streamed.volume)
        assert memory.history == streamed.history
        assert streamed.config.data_source == str(store)
        assert streamed.config.batch_size == 4
        assert streamed.config.prefetch is True
        # The in-memory run records the resolved per-position default.
        assert memory.config.data_source is None
        assert memory.config.batch_size == 1

    def test_env_batch_size_recorded(
        self, dataset_path, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv(ENV_BATCH_SIZE, "3")
        out = tmp_path / "env.npz"
        assert main([
            "reconstruct", "--dataset", str(dataset_path),
            "--ranks", "4", "--iterations", "1", "--out", str(out),
        ]) == 0
        assert load_result(out).config.batch_size == 3

    def test_flags_override_config_for_replay(
        self, dataset_path, tmp_path, capsys
    ):
        store = self._store(dataset_path, tmp_path)
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "solver": "gd",
            "solver_params": {
                "n_ranks": 4, "iterations": 2, "lr": 0.02,
                "mode": "synchronous",
            },
        }))
        out = tmp_path / "replayed.npz"
        assert main([
            "reconstruct", "--dataset", str(dataset_path),
            "--config", str(config_path),
            "--data-store", str(store), "--batch-size", "2",
            "--out", str(out),
        ]) == 0
        replayed = load_result(out)
        assert replayed.config.data_source == str(store)
        assert replayed.config.batch_size == 2

    def test_no_prefetch_overrides_archived_config(
        self, dataset_path, tmp_path, capsys
    ):
        # Every data field must honour the CLI replay-override
        # contract, including switching prefetch *off*.
        store = self._store(dataset_path, tmp_path)
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "solver": "gd",
            "solver_params": {"n_ranks": 4, "iterations": 1, "lr": 0.02},
            "data_source": str(store),
            "prefetch": True,
        }))
        out = tmp_path / "quiet.npz"
        assert main([
            "reconstruct", "--dataset", str(dataset_path),
            "--config", str(config_path), "--no-prefetch",
            "--out", str(out),
        ]) == 0
        assert load_result(out).config.prefetch is False

    def test_invalid_batch_size_errors_cleanly(
        self, dataset_path, tmp_path, capsys
    ):
        assert main([
            "reconstruct", "--dataset", str(dataset_path),
            "--batch-size", "0", "--out", str(tmp_path / "x.npz"),
        ]) == 2
        assert "batch_size" in capsys.readouterr().err

    def test_missing_store_errors_cleanly(
        self, dataset_path, tmp_path, capsys
    ):
        assert main([
            "reconstruct", "--dataset", str(dataset_path),
            "--data-store", str(tmp_path / "nope.npz"),
            "--iterations", "1",
            "--out", str(tmp_path / "x.npz"),
        ]) == 2

    def test_replay_of_streamed_archive(self, dataset_path, tmp_path):
        store = self._store(dataset_path, tmp_path)
        out = tmp_path / "first.npz"
        assert main([
            "reconstruct", "--dataset", str(dataset_path),
            "--ranks", "4", "--iterations", "2", "--mode", "synchronous",
            "--data-store", str(store), "--batch-size", "4",
            "--out", str(out),
        ]) == 0
        archive = load_result(out)
        from repro.io import load_dataset

        replay = reconstruct(load_dataset(dataset_path), archive.config)
        np.testing.assert_array_equal(replay.volume, archive.volume)
