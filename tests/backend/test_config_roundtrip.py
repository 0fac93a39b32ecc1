"""Config/CLI round-trip of the compute fields (backend/dtype)."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.api import (
    ReconstructionConfig,
    SolverCapabilityError,
    register_solver,
    solver_from_config,
    unregister_solver,
)
from repro.backend import ENV_BACKEND, ENV_DTYPE


class TestConfigFields:
    def test_defaults_are_ambient(self):
        """Unset fields mean *ambient* (env / use_backend / process
        default), not a pinned backend — so scoping constructs still
        steer config-driven runs."""
        cfg = ReconstructionConfig("gd")
        assert cfg.backend is None
        assert cfg.dtype is None

    def test_to_dict_includes_compute_fields(self):
        payload = ReconstructionConfig("gd", backend="threaded").to_dict()
        assert payload["backend"] == "threaded"
        assert payload["dtype"] is None

    def test_json_round_trip(self):
        cfg = ReconstructionConfig(
            "gd",
            solver_params={"n_ranks": 4},
            backend="threaded",
            dtype="complex64",
        )
        assert ReconstructionConfig.from_json(cfg.to_json()) == cfg
        payload = json.loads(cfg.to_json())
        assert payload["backend"] == "threaded"
        assert payload["dtype"] == "complex64"

    def test_legacy_payload_without_compute_keys(self):
        """Pre-backend archives (no backend/dtype keys) load as ambient
        — i.e. the numpy/complex128 reference they were produced with,
        unless explicitly redirected."""
        cfg = ReconstructionConfig.from_dict(
            {"solver": "gd", "solver_params": {"n_ranks": 4}}
        )
        assert cfg.backend is None
        assert cfg.dtype is None

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError, match="complex64"):
            ReconstructionConfig("gd", dtype="float32")

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ReconstructionConfig("gd", backend="")

    def test_with_compute(self):
        cfg = ReconstructionConfig("gd", solver_params={"n_ranks": 4})
        new = replace(cfg, backend="threaded")
        assert new.backend == "threaded"
        assert new.dtype is None  # untouched
        assert new.solver_params["n_ranks"] == 4
        assert cfg.backend is None  # original untouched
        assert replace(new, dtype="complex64").dtype == "complex64"

    def test_derivations_preserve_compute_fields(self):
        cfg = ReconstructionConfig(
            "gd", backend="threaded", dtype="complex64"
        )
        assert cfg.with_solver_params(lr=0.1).backend == "threaded"
        assert cfg.with_run_params(resume="a.npz").dtype == "complex64"


class TestSolverInjection:
    def test_adapters_receive_compute_params(self, tiny_dataset):
        cfg = ReconstructionConfig(
            "serial",
            solver_params={"iterations": 1, "lr": 0.1},
            backend="threaded",
            dtype="complex64",
        )
        solver = solver_from_config(cfg)
        assert solver.options.backend == "threaded"
        assert solver.options.dtype == "complex64"

    def test_all_builtin_adapters_accept_compute_params(self):
        from repro.api import get_solver, solver_names

        for name in solver_names():
            accepted = get_solver(name).accepted_params
            assert {"backend", "dtype"} <= set(accepted), name

    def test_default_compute_ok_for_minimal_solver(self):
        @register_solver("minimal-test")
        class Minimal:
            def __init__(self):
                pass

            def reconstruct(self, dataset, *, observers=(), **kw):
                raise NotImplementedError

        try:
            cfg = ReconstructionConfig("minimal-test")
            assert isinstance(solver_from_config(cfg), Minimal)
        finally:
            unregister_solver("minimal-test")

    def test_nondefault_compute_rejected_for_minimal_solver(self):
        @register_solver("minimal-test")
        class Minimal:
            def __init__(self):
                pass

            def reconstruct(self, dataset, *, observers=(), **kw):
                raise NotImplementedError

        try:
            cfg = ReconstructionConfig("minimal-test", backend="threaded")
            with pytest.raises(SolverCapabilityError, match="backend"):
                solver_from_config(cfg)
        finally:
            unregister_solver("minimal-test")

    def test_conflicting_spellings_rejected(self):
        cfg = ReconstructionConfig(
            "serial",
            solver_params={"iterations": 1, "dtype": "complex128"},
            dtype="complex64",
        )
        with pytest.raises(ValueError, match="config field"):
            solver_from_config(cfg)

    def test_solver_params_spelling_still_works(self):
        """Direct solver_params spelling (no config field) reaches the
        adapter untouched."""
        cfg = ReconstructionConfig(
            "serial", solver_params={"iterations": 1, "dtype": "complex64"}
        )
        solver = solver_from_config(cfg)
        assert solver.options.dtype == "complex64"


class TestAmbientConfigRuns:
    def test_use_backend_steers_default_config(self, tiny_dataset):
        """A config with unset compute fields follows use_backend —
        the scoping construct must reach config-driven runs."""
        import repro
        from repro.backend import (
            NumpyBackend,
            register_backend,
            unregister_backend,
            use_backend,
        )

        calls = []

        @register_backend("traced-test")
        class Traced(NumpyBackend):
            def fft2(self, a, norm="ortho"):
                calls.append(a.shape)
                return super().fft2(a, norm=norm)

        try:
            cfg = ReconstructionConfig(
                "serial", {"iterations": 1, "lr": 0.1}
            )
            with use_backend("traced-test"):
                repro.reconstruct(tiny_dataset, cfg)
            assert calls, "ambient backend never executed a transform"
        finally:
            unregister_backend("traced-test")

    def test_pinned_config_ignores_ambient(self, tiny_dataset):
        import repro
        from repro.backend import use_backend

        cfg = ReconstructionConfig(
            "serial", {"iterations": 1, "lr": 0.1},
            backend="numpy", dtype="complex64",
        )
        with use_backend("threaded"):
            result = repro.reconstruct(tiny_dataset, cfg)
        assert result.volume.dtype == np.complex64


class TestUnknownBackendAtRunTime:
    def test_reconstruct_fails_fast(self, tiny_dataset):
        import repro
        from repro.backend import UnknownBackendError

        cfg = ReconstructionConfig(
            "serial", solver_params={"iterations": 1}, backend="nope"
        )
        with pytest.raises(UnknownBackendError, match="nope"):
            repro.reconstruct(tiny_dataset, cfg)


class TestCli:
    @pytest.fixture()
    def dataset_path(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "ds.npz"
        assert main([
            "simulate", "--grid", "3x3", "--detector", "16",
            "--seed", "5", "--out", str(path),
        ]) == 0
        return path

    def test_backend_flags_recorded_in_archive(
        self, dataset_path, tmp_path, capsys
    ):
        from repro.cli import main
        from repro.io import load_result

        out = tmp_path / "rec.npz"
        rc = main([
            "reconstruct", "--dataset", str(dataset_path),
            "--algorithm", "serial", "--iterations", "2",
            "--backend", "threaded", "--dtype", "complex64",
            "--out", str(out),
        ])
        assert rc == 0
        assert "backend: threaded (complex64)" in capsys.readouterr().out
        archive = load_result(out)
        assert archive.config.backend == "threaded"
        assert archive.config.dtype == "complex64"
        assert archive.volume.dtype == np.complex64

    def test_default_flags_record_ambient(
        self, dataset_path, tmp_path, monkeypatch
    ):
        from repro.cli import main
        from repro.io import load_result

        monkeypatch.delenv(ENV_BACKEND, raising=False)
        monkeypatch.delenv(ENV_DTYPE, raising=False)
        out = tmp_path / "rec.npz"
        assert main([
            "reconstruct", "--dataset", str(dataset_path),
            "--algorithm", "serial", "--iterations", "1",
            "--out", str(out),
        ]) == 0
        archive = load_result(out)
        assert archive.config.backend == "numpy"
        assert archive.config.dtype == "complex128"

    def test_config_file_with_backend_override(
        self, dataset_path, tmp_path, capsys
    ):
        """--backend on a --config run overrides for replay, like
        --resume does."""
        from repro.cli import main
        from repro.io import load_result

        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "solver": "serial",
            "solver_params": {"iterations": 1, "lr": 0.1},
            "backend": "numpy",
            "dtype": "complex128",
        }))
        out = tmp_path / "rec.npz"
        assert main([
            "reconstruct", "--dataset", str(dataset_path),
            "--config", str(config_path),
            "--backend", "threaded",
            "--out", str(out),
        ]) == 0
        archive = load_result(out)
        assert archive.config.backend == "threaded"
        assert archive.config.dtype == "complex128"  # untouched

    def test_unavailable_backend_errors_cleanly(
        self, dataset_path, tmp_path, capsys
    ):
        from repro.backend import CupyBackend
        from repro.cli import main

        if CupyBackend.available():  # pragma: no cover - GPU machines
            pytest.skip("cupy available; unavailability not exercisable")
        rc = main([
            "reconstruct", "--dataset", str(dataset_path),
            "--algorithm", "serial", "--iterations", "1",
            "--backend", "cupy",
            "--out", str(tmp_path / "rec.npz"),
        ])
        assert rc == 2
        assert "not available" in capsys.readouterr().err
