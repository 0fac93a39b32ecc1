"""CLI workflow tests (main() called in-process)."""

import numpy as np
import pytest

from repro.api import ReconstructionConfig, reconstruct, solver_names
from repro.cli import build_parser, main
from repro.io import load_dataset, load_result


@pytest.fixture()
def dataset_path(tmp_path):
    path = tmp_path / "ds.npz"
    assert (
        main(
            [
                "simulate",
                "--grid", "4x4",
                "--detector", "16",
                "--slices", "2",
                "--seed", "3",
                "--out", str(path),
            ]
        )
        == 0
    )
    return path


class TestSimulate:
    def test_writes_loadable_dataset(self, dataset_path):
        dataset = load_dataset(dataset_path)
        assert dataset.n_probes == 16
        assert dataset.spec.detector_px == 16

    def test_dose_option(self, tmp_path):
        clean, noisy = tmp_path / "c.npz", tmp_path / "n.npz"
        main(["simulate", "--grid", "3x3", "--detector", "16",
              "--seed", "1", "--out", str(clean)])
        main(["simulate", "--grid", "3x3", "--detector", "16",
              "--seed", "1", "--dose", "1e4", "--out", str(noisy)])
        a, b = load_dataset(clean), load_dataset(noisy)
        assert not np.allclose(a.amplitudes, b.amplitudes)

    def test_bad_grid_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--grid", "4by4", "--out", str(tmp_path / "x")])


class TestReconstruct:
    @pytest.mark.parametrize("algorithm", ["gd", "hve", "serial"])
    def test_algorithms_run(self, dataset_path, tmp_path, algorithm, capsys):
        out = tmp_path / f"{algorithm}.npz"
        code = main(
            [
                "reconstruct",
                "--dataset", str(dataset_path),
                "--algorithm", algorithm,
                "--ranks", "4",
                "--iterations", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        result = load_result(out)
        assert len(result.history) == 2
        assert result.history[-1] < result.history[0]

    def test_resume(self, dataset_path, tmp_path, capsys):
        first = tmp_path / "first.npz"
        second = tmp_path / "second.npz"
        main(["reconstruct", "--dataset", str(dataset_path),
              "--iterations", "2", "--out", str(first)])
        main(["reconstruct", "--dataset", str(dataset_path),
              "--iterations", "2", "--resume", str(first),
              "--out", str(second)])
        a, b = load_result(first), load_result(second)
        assert b.history[:2] == a.history
        assert b.history[2] < a.history[0]  # warm start pays off

    def test_refine_probe_flag(self, dataset_path, tmp_path, capsys):
        out = tmp_path / "rp.npz"
        main(["reconstruct", "--dataset", str(dataset_path),
              "--iterations", "1", "--refine-probe", "--out", str(out)])
        assert load_result(out).probe is not None

    def test_numeric_sync_period(self, dataset_path, tmp_path, capsys):
        out = tmp_path / "t2.npz"
        code = main(["reconstruct", "--dataset", str(dataset_path),
                     "--iterations", "1", "--sync-period", "2",
                     "--out", str(out)])
        assert code == 0

    def test_hve_resume(self, dataset_path, tmp_path, capsys):
        first = tmp_path / "first.npz"
        second = tmp_path / "second.npz"
        main(["reconstruct", "--dataset", str(dataset_path),
              "--algorithm", "hve", "--iterations", "2",
              "--out", str(first)])
        code = main(["reconstruct", "--dataset", str(dataset_path),
                     "--algorithm", "hve", "--iterations", "2",
                     "--resume", str(first), "--out", str(second)])
        assert code == 0
        a, b = load_result(first), load_result(second)
        assert b.history[:2] == a.history
        assert b.history[2] < a.history[0]

    def test_hve_refine_probe_errors_clearly(
        self, dataset_path, tmp_path, capsys
    ):
        code = main(["reconstruct", "--dataset", str(dataset_path),
                     "--algorithm", "hve", "--refine-probe",
                     "--out", str(tmp_path / "x.npz")])
        assert code == 2
        err = capsys.readouterr().err
        assert "--refine-probe" in err
        assert "hve" in err
        assert not (tmp_path / "x.npz").exists()

    def test_bad_stream_schedule_errors_clearly(
        self, dataset_path, tmp_path, capsys
    ):
        schedule = (
            '{"kind": "simulated", "waves": [{"count": 8, "after_sweep": 0,'
            ' "end_of_scan": true}], "advertised": 8}'
        )
        code = main(["reconstruct", "--dataset", str(dataset_path),
                     "--iterations", "1", "--stream-schedule", schedule,
                     "--out", str(tmp_path / "x.npz")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("reconstruct: error: scan source advertises")
        assert not (tmp_path / "x.npz").exists()

    def test_serial_explicit_ranks_errors_clearly(
        self, dataset_path, tmp_path, capsys
    ):
        code = main(["reconstruct", "--dataset", str(dataset_path),
                     "--algorithm", "serial", "--ranks", "8",
                     "--out", str(tmp_path / "x.npz")])
        assert code == 2
        assert "--ranks" in capsys.readouterr().err

    def test_explicit_lr_errors_for_solver_without_lr(
        self, dataset_path, tmp_path, capsys
    ):
        from repro.api import register_solver, unregister_solver

        @register_solver("no-lr-test")
        class NoLr:
            accepted_params = frozenset({"iterations"})

            def __init__(self, iterations=1):
                self.iterations = iterations

            def reconstruct(self, dataset, *, observers=(),
                            initial_probe=None, initial_volume=None):
                raise AssertionError("should not run")

        try:
            code = main(["reconstruct", "--dataset", str(dataset_path),
                         "--algorithm", "no-lr-test", "--lr", "0.5",
                         "--out", str(tmp_path / "x.npz")])
        finally:
            unregister_solver("no-lr-test")
        assert code == 2
        assert "--lr" in capsys.readouterr().err


class TestReconstructConfig:
    def _write_config(self, tmp_path, config):
        path = tmp_path / "run.json"
        path.write_text(config.to_json())
        return path

    def test_config_file_runs_and_is_embedded(
        self, dataset_path, tmp_path, capsys
    ):
        config = ReconstructionConfig(
            "gd", {"n_ranks": 4, "iterations": 2, "lr": 0.02}
        )
        out = tmp_path / "rec.npz"
        code = main(["reconstruct", "--dataset", str(dataset_path),
                     "--config", str(self._write_config(tmp_path, config)),
                     "--out", str(out)])
        assert code == 0
        archive = load_result(out)
        assert archive.config == config
        assert len(archive.history) == 2

    def test_flag_run_embeds_resolved_config_and_replays(
        self, dataset_path, tmp_path, capsys
    ):
        out = tmp_path / "rec.npz"
        assert main(["reconstruct", "--dataset", str(dataset_path),
                     "--iterations", "2", "--out", str(out)]) == 0
        archive = load_result(out)
        assert archive.config is not None
        assert archive.config.solver == "gd"
        # the auto-chosen lr is resolved into the config ...
        assert archive.config.solver_params["lr"] > 0
        # ... so replaying it through the API reproduces the run exactly
        replay = reconstruct(load_dataset(dataset_path), archive.config)
        assert replay.history == archive.history

    def test_unknown_solver_in_config_lists_registered(
        self, dataset_path, tmp_path, capsys
    ):
        path = tmp_path / "bad.json"
        path.write_text('{"solver": "wat"}')
        code = main(["reconstruct", "--dataset", str(dataset_path),
                     "--config", str(path),
                     "--out", str(tmp_path / "x.npz")])
        assert code == 2
        err = capsys.readouterr().err
        for name in solver_names():
            assert name in err

    def test_config_plus_explicit_solver_flag_errors(
        self, dataset_path, tmp_path, capsys
    ):
        config = ReconstructionConfig("gd", {"iterations": 1, "lr": 0.02})
        code = main(["reconstruct", "--dataset", str(dataset_path),
                     "--config", str(self._write_config(tmp_path, config)),
                     "--refine-probe",
                     "--out", str(tmp_path / "x.npz")])
        assert code == 2
        err = capsys.readouterr().err
        assert "--refine-probe" in err and "--config" in err
        assert not (tmp_path / "x.npz").exists()

    def test_config_missing_file_errors_cleanly(
        self, dataset_path, tmp_path, capsys
    ):
        code = main(["reconstruct", "--dataset", str(dataset_path),
                     "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x.npz")])
        assert code == 2
        assert "cannot read --config" in capsys.readouterr().err

    def test_config_non_object_payload_errors_cleanly(
        self, dataset_path, tmp_path, capsys
    ):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code = main(["reconstruct", "--dataset", str(dataset_path),
                     "--config", str(path),
                     "--out", str(tmp_path / "x.npz")])
        assert code == 2
        assert "mapping" in capsys.readouterr().err

    def test_config_with_unsupported_param_errors(
        self, dataset_path, tmp_path, capsys
    ):
        config = ReconstructionConfig(
            "hve", {"iterations": 1, "refine_probe": True}
        )
        code = main(["reconstruct", "--dataset", str(dataset_path),
                     "--config", str(self._write_config(tmp_path, config)),
                     "--out", str(tmp_path / "x.npz")])
        assert code == 2
        assert "refine_probe" in capsys.readouterr().err

    def test_algorithm_choices_come_from_registry(self):
        parser = build_parser()
        text = parser.format_help()
        # find the reconstruct subparser's --algorithm choices
        sub = [
            a for a in parser._subparsers._group_actions[0].choices.items()
        ]
        rec = dict(sub)["reconstruct"]
        algo = [a for a in rec._actions if "--algorithm" in a.option_strings]
        assert algo[0].choices == solver_names()


class TestPredict:
    def test_prints_table(self, capsys):
        assert main(["predict", "--dataset", "small", "--gpus", "6,24"]) == 0
        out = capsys.readouterr().out
        assert "GPUs" in out
        assert "24" in out

    def test_hve_na(self, capsys):
        main(["predict", "--dataset", "small", "--algorithm", "hve",
              "--gpus", "6,126"])
        assert "NA" in capsys.readouterr().out


class TestExperiment:
    def test_table1(self, capsys):
        assert main(["experiment", "--name", "table1"]) == 0
        assert "pbtio3-small" in capsys.readouterr().out

    def test_fig5(self, capsys):
        assert main(["experiment", "--name", "fig5"]) == 0
        assert "GPU 9" in capsys.readouterr().out

    def test_unknown_name_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "--name", "fig42"])


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
