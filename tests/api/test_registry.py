"""Solver registry: lookup, registration, adapters, uniform results."""

import numpy as np
import pytest

from repro.api import (
    ReconstructionConfig,
    SolverCapabilityError,
    UnknownSolverError,
    get_solver,
    reconstruct,
    register_solver,
    solver_from_config,
    solver_names,
    unregister_solver,
)
from repro.baseline import HaloExchangeReconstructor, SerialReconstructor
from repro.core import GradientDecompositionReconstructor, ReconstructionResult

TINY = {"iterations": 2}


class TestLookup:
    def test_builtin_solvers_registered(self):
        assert {"gd", "hve", "serial"} <= set(solver_names())

    def test_unknown_solver_lists_registered_names(self):
        with pytest.raises(UnknownSolverError) as err:
            get_solver("nope")
        message = str(err.value)
        for name in ("gd", "hve", "serial"):
            assert name in message

    def test_unknown_solver_via_config(self):
        with pytest.raises(UnknownSolverError, match="registered solvers"):
            solver_from_config(ReconstructionConfig("nope"))


class TestRegistration:
    def test_third_party_roundtrip(self):
        @register_solver("thirdparty-test")
        class Dummy:
            accepted_params = frozenset({"iterations"})

            def __init__(self, iterations=1):
                self.iterations = iterations

            def reconstruct(self, dataset, *, observers=(),
                            initial_probe=None, initial_volume=None):
                return "ran"

        try:
            assert "thirdparty-test" in solver_names()
            assert Dummy.solver_name == "thirdparty-test"
            solver = solver_from_config(
                ReconstructionConfig("thirdparty-test", {"iterations": 7})
            )
            assert solver.iterations == 7
        finally:
            unregister_solver("thirdparty-test")
        assert "thirdparty-test" not in solver_names()

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_solver("gd")
            class Clash:
                def reconstruct(self, dataset, **kw):
                    pass

    def test_class_without_reconstruct_rejected(self):
        with pytest.raises(TypeError, match="reconstruct"):
            @register_solver("no-reconstruct")
            class Bad:
                pass

    def test_unregister_unknown_rejected(self):
        with pytest.raises(UnknownSolverError):
            unregister_solver("never-was")


class TestRegisteredClasses:
    @pytest.mark.parametrize(
        "name, cls",
        [
            ("gd", GradientDecompositionReconstructor),
            ("hve", HaloExchangeReconstructor),
            ("serial", SerialReconstructor),
        ],
    )
    def test_config_builds_the_reconstructor_itself(self, name, cls):
        solver = solver_from_config(ReconstructionConfig(name, TINY))
        assert type(solver) is cls

    def test_third_party_undeclared_param_is_capability_error(self):
        @register_solver("narrow-test")
        class Narrow:
            accepted_params = frozenset({"iterations"})

            def __init__(self, iterations=1):
                self.iterations = iterations

            def reconstruct(self, dataset, *, observers=(),
                            initial_probe=None, initial_volume=None):
                raise NotImplementedError

        try:
            with pytest.raises(SolverCapabilityError, match="bogus"):
                solver_from_config(
                    ReconstructionConfig("narrow-test", {"bogus": 1})
                )
        finally:
            unregister_solver("narrow-test")

    @pytest.mark.parametrize(
        "cls", [GradientDecompositionReconstructor, HaloExchangeReconstructor]
    )
    def test_distributed_defaults_hold_on_direct_construction(self, cls):
        assert cls().n_ranks == 4
        assert cls(mesh=[1, 2]).mesh.n_ranks == 2


class TestAdapters:
    def test_unknown_param_is_capability_error(self):
        with pytest.raises(SolverCapabilityError) as err:
            solver_from_config(
                ReconstructionConfig("hve", {"refine_probe": True})
            )
        assert "hve" in str(err.value)
        assert "refine_probe" in str(err.value)
        assert "accepted" in str(err.value)

    def test_hve_rejects_initial_probe(self, tiny_dataset):
        solver = solver_from_config(ReconstructionConfig("hve", TINY))
        with pytest.raises(SolverCapabilityError, match="initial_probe"):
            solver.reconstruct(
                tiny_dataset, initial_probe=tiny_dataset.probe.array
            )

    def test_mesh_json_spelling(self, tiny_dataset):
        solver = solver_from_config(
            ReconstructionConfig("gd", {"mesh": [2, 2], "iterations": 1})
        )
        assert solver.mesh.n_ranks == 4

    def test_bad_mesh_spelling_rejected(self):
        with pytest.raises(SolverCapabilityError, match="rows, cols"):
            solver_from_config(ReconstructionConfig("gd", {"mesh": [2]}))

    def test_delegation_to_inner(self, tiny_dataset):
        solver = solver_from_config(
            ReconstructionConfig("gd", {"n_ranks": 4, "iterations": 1})
        )
        decomp = solver.decompose(tiny_dataset)  # delegated attribute
        schedule = solver.build_iteration_schedule(decomp)
        assert len(list(schedule)) > 0

    @pytest.mark.parametrize("name", ["gd", "hve", "serial"])
    def test_all_solvers_same_result_shape(self, tiny_dataset, tiny_lr, name):
        config = ReconstructionConfig(
            name, {"iterations": 2, "lr": float(tiny_lr)}
        )
        result = reconstruct(tiny_dataset, config)
        assert isinstance(result, ReconstructionResult)
        assert result.volume.shape == (
            tiny_dataset.n_slices,
            *tiny_dataset.object_shape,
        )
        assert len(result.history) == 2
        assert result.history[-1] < result.history[0]
        assert result.messages >= 0
        assert len(result.peak_memory_per_rank) >= 1


class TestReconstructEntryPoint:
    def test_accepts_plain_dict_config(self, tiny_dataset, tiny_lr):
        result = reconstruct(
            tiny_dataset,
            {
                "solver": "serial",
                "solver_params": {"iterations": 1, "lr": float(tiny_lr)},
            },
        )
        assert len(result.history) == 1

    def test_unknown_run_param_rejected(self, tiny_dataset):
        with pytest.raises(ValueError, match="unknown run_params"):
            reconstruct(
                tiny_dataset,
                ReconstructionConfig(
                    "serial", TINY, run_params={"bogus": 1}
                ),
            )

    def test_resume_run_param(self, tiny_dataset, tiny_lr, tmp_path):
        from repro.io import load_result, save_result

        cfg = ReconstructionConfig(
            "serial", {"iterations": 2, "lr": float(tiny_lr)}
        )
        first = reconstruct(tiny_dataset, cfg)
        path = tmp_path / "first.npz"
        save_result(path, first, config=cfg)

        resumed = reconstruct(
            tiny_dataset, cfg.with_run_params(resume=str(path))
        )
        # the resumed run continues the archive's history, and the warm
        # start begins below the cold run's start
        assert resumed.history[:2] == first.history
        assert resumed.history[2] < first.history[0]

    def test_replay_from_embedded_config_reproduces_history(
        self, tiny_dataset, tiny_lr, tmp_path
    ):
        from repro.io import load_result, save_result

        config = ReconstructionConfig(
            "gd",
            {
                "n_ranks": 4,
                "iterations": 3,
                "lr": float(tiny_lr),
                "sync_period": "iteration",
            },
        )
        result = reconstruct(tiny_dataset, config)
        path = tmp_path / "run.npz"
        save_result(path, result, config=config)

        archive = load_result(path)
        assert archive.config == config
        replay = reconstruct(tiny_dataset, archive.config)
        assert replay.history == archive.history
        np.testing.assert_array_equal(replay.volume, archive.volume)
