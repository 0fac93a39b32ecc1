"""The precedence contract, pinned: explicit config fields beat env vars.

A replayed config that pins ``backend=``/``dtype=``/``executor=`` must
run exactly what it says even when ``REPRO_BACKEND``/``REPRO_DTYPE``/
``REPRO_EXECUTOR`` point elsewhere — the environment only fills *ambient*
(``None``) fields.  Each knob gets a behavioural check (not just a
recorded-name check) plus a CLI round-trip.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.api import ReconstructionConfig
from repro.backend import (
    ENV_BACKEND,
    ENV_DTYPE,
    NumpyBackend,
    register_backend,
    unregister_backend,
)
from repro.runtime import (
    ENV_EXECUTOR,
    SerialExecutor,
    register_executor,
    unregister_executor,
)


@pytest.fixture()
def traced_backend():
    calls = []

    @register_backend("traced-env-test")
    class Traced(NumpyBackend):
        def fft2(self, a, norm="ortho"):
            calls.append(a.shape)
            return super().fft2(a, norm=norm)

    try:
        yield calls
    finally:
        unregister_backend("traced-env-test")


@pytest.fixture()
def traced_executor():
    launches = []

    @register_executor("traced-exec-test")
    class TracedExecutor(SerialExecutor):
        def launch(self, plan):
            launches.append(plan)
            return super().launch(plan)

    try:
        yield launches
    finally:
        unregister_executor("traced-exec-test")


class TestExplicitBeatsEnv:
    def test_pinned_backend_ignores_env(
        self, tiny_dataset, monkeypatch, traced_backend
    ):
        monkeypatch.setenv(ENV_BACKEND, "traced-env-test")
        cfg = ReconstructionConfig(
            "serial", {"iterations": 1, "lr": 0.1}, backend="numpy"
        )
        repro.reconstruct(tiny_dataset, cfg)
        assert not traced_backend, (
            "explicit backend='numpy' was overridden by REPRO_BACKEND"
        )

    def test_ambient_backend_follows_env(
        self, tiny_dataset, monkeypatch, traced_backend
    ):
        monkeypatch.setenv(ENV_BACKEND, "traced-env-test")
        cfg = ReconstructionConfig("serial", {"iterations": 1, "lr": 0.1})
        repro.reconstruct(tiny_dataset, cfg)
        assert traced_backend

    def test_pinned_dtype_ignores_env(self, tiny_dataset, monkeypatch):
        monkeypatch.setenv(ENV_DTYPE, "complex64")
        cfg = ReconstructionConfig(
            "serial", {"iterations": 1, "lr": 0.1}, dtype="complex128"
        )
        result = repro.reconstruct(tiny_dataset, cfg)
        assert result.volume.dtype == np.complex128

    def test_ambient_dtype_follows_env(self, tiny_dataset, monkeypatch):
        monkeypatch.setenv(ENV_DTYPE, "complex64")
        cfg = ReconstructionConfig("serial", {"iterations": 1, "lr": 0.1})
        result = repro.reconstruct(tiny_dataset, cfg)
        assert result.volume.dtype == np.complex64

    def test_pinned_executor_ignores_env(
        self, tiny_dataset, tiny_lr, monkeypatch, traced_executor
    ):
        monkeypatch.setenv(ENV_EXECUTOR, "traced-exec-test")
        cfg = ReconstructionConfig(
            "gd",
            {"n_ranks": 2, "iterations": 1, "lr": float(tiny_lr)},
            executor="serial",
        )
        repro.reconstruct(tiny_dataset, cfg)
        assert not traced_executor, (
            "explicit executor='serial' was overridden by REPRO_EXECUTOR"
        )

    def test_ambient_executor_follows_env(
        self, tiny_dataset, tiny_lr, monkeypatch, traced_executor
    ):
        monkeypatch.setenv(ENV_EXECUTOR, "traced-exec-test")
        cfg = ReconstructionConfig(
            "gd", {"n_ranks": 2, "iterations": 1, "lr": float(tiny_lr)}
        )
        repro.reconstruct(tiny_dataset, cfg)
        assert traced_executor


class TestConfigRoundTrip:
    def test_runtime_fields_round_trip(self):
        cfg = ReconstructionConfig(
            "gd",
            solver_params={"n_ranks": 4},
            executor="process",
            runtime_workers=3,
        )
        clone = ReconstructionConfig.from_json(cfg.to_json())
        assert clone == cfg
        payload = json.loads(cfg.to_json())
        assert payload["executor"] == "process"
        assert payload["runtime_workers"] == 3

    def test_legacy_payload_loads_ambient(self):
        cfg = ReconstructionConfig.from_dict(
            {"solver": "gd", "solver_params": {"n_ranks": 4}}
        )
        assert cfg.executor is None
        assert cfg.runtime_workers is None

    def test_invalid_runtime_fields_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            ReconstructionConfig("gd", executor="")
        with pytest.raises(ValueError, match="runtime_workers"):
            ReconstructionConfig("gd", runtime_workers=0)
        with pytest.raises(ValueError, match="runtime_workers"):
            ReconstructionConfig("gd", runtime_workers=True)

    def test_with_runtime_derivation(self):
        cfg = ReconstructionConfig("gd", backend="numpy")
        new = replace(cfg, executor="process", runtime_workers=2)
        assert new.executor == "process"
        assert new.runtime_workers == 2
        assert new.backend == "numpy"  # untouched
        assert cfg.executor is None  # original untouched
        assert new.with_solver_params(lr=0.1).executor == "process"
        assert new.with_run_params(resume="a.npz").runtime_workers == 2
        assert replace(new, dtype="complex64").executor == "process"

    def test_pinning_executor_on_serial_solver_rejected(self):
        from repro.api import SolverCapabilityError, solver_from_config

        cfg = ReconstructionConfig(
            "serial", {"iterations": 1}, executor="process"
        )
        with pytest.raises(SolverCapabilityError, match="executor"):
            solver_from_config(cfg)


class TestCliRoundTrip:
    @pytest.fixture()
    def dataset_path(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "ds.npz"
        assert main([
            "simulate", "--grid", "3x3", "--detector", "16",
            "--seed", "5", "--out", str(path),
        ]) == 0
        return path

    def test_executor_flag_recorded_in_archive(
        self, dataset_path, tmp_path, capsys
    ):
        from repro.cli import main
        from repro.io import load_result

        out = tmp_path / "rec.npz"
        assert main([
            "reconstruct", "--dataset", str(dataset_path),
            "--iterations", "1", "--ranks", "2",
            "--executor", "process", "--runtime-workers", "2",
            "--out", str(out),
        ]) == 0
        assert "executor: process, workers=2" in capsys.readouterr().out
        archive = load_result(out)
        assert archive.config.executor == "process"
        assert archive.config.runtime_workers == 2

    def test_default_flags_record_ambient_executor(
        self, dataset_path, tmp_path, monkeypatch
    ):
        from repro.cli import main
        from repro.io import load_result

        monkeypatch.delenv(ENV_EXECUTOR, raising=False)
        out = tmp_path / "rec.npz"
        assert main([
            "reconstruct", "--dataset", str(dataset_path),
            "--iterations", "1", "--ranks", "2", "--out", str(out),
        ]) == 0
        assert load_result(out).config.executor == "serial"

    def test_replayed_config_keeps_pinned_fields_under_env(
        self, dataset_path, tmp_path, monkeypatch
    ):
        """The full satellite contract in one flow: archive a pinned
        config, replay it under conflicting env vars, and confirm the
        pins survive into the replayed archive."""
        from repro.cli import main
        from repro.io import load_result

        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "solver": "gd",
            "solver_params": {"n_ranks": 2, "iterations": 1, "lr": 0.02},
            "backend": "numpy",
            "dtype": "complex128",
            "executor": "serial",
        }))
        monkeypatch.setenv(ENV_BACKEND, "threaded")
        monkeypatch.setenv(ENV_DTYPE, "complex64")
        monkeypatch.setenv(ENV_EXECUTOR, "process")
        out = tmp_path / "rec.npz"
        assert main([
            "reconstruct", "--dataset", str(dataset_path),
            "--config", str(config_path), "--out", str(out),
        ]) == 0
        archive = load_result(out)
        assert archive.config.backend == "numpy"
        assert archive.config.dtype == "complex128"
        assert archive.config.executor == "serial"
        assert archive.volume.dtype == np.complex128

    def test_executor_flag_overrides_config_for_replay(
        self, dataset_path, tmp_path
    ):
        from repro.cli import main
        from repro.io import load_result

        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "solver": "gd",
            "solver_params": {"n_ranks": 2, "iterations": 1, "lr": 0.02},
            "executor": "serial",
        }))
        out = tmp_path / "rec.npz"
        assert main([
            "reconstruct", "--dataset", str(dataset_path),
            "--config", str(config_path),
            "--executor", "process",
            "--out", str(out),
        ]) == 0
        assert load_result(out).config.executor == "process"

    def test_executor_flag_rejected_for_serial_solver(
        self, dataset_path, tmp_path, capsys
    ):
        from repro.cli import main

        rc = main([
            "reconstruct", "--dataset", str(dataset_path),
            "--algorithm", "serial", "--iterations", "1",
            "--executor", "process",
            "--out", str(tmp_path / "rec.npz"),
        ])
        assert rc == 2
        assert "--executor" in capsys.readouterr().err
