"""The run options travel whole: reconstructor → plan → engine → worker.

The property guarded here is *"a new run option touches a dataclass, its
consumer and a test"* — not the spelling of today's nine.  A synthetic
tenth option, declared on a subclass nobody in ``src/`` has heard of,
must arrive **by identity** at the launch plan and the engine: if any
layer rebuilt the options field by field, the subclass (and ``flux``)
would be lost on the way.  The structural checks pin that no layer
re-declares an option name, and the behavioural ones that every
spelling of an option — keyword, ``options=``, config field — is the
same run.
"""

from __future__ import annotations

import dataclasses
import inspect
import multiprocessing as mp
import os
import pickle
from typing import Optional

import pytest

import repro
from repro.api import ReconstructionConfig, get_solver, solver_from_config
from repro.api.registry import SolverCapabilityError
from repro.baseline import HaloExchangeReconstructor, SerialReconstructor
from repro.core import GradientDecompositionReconstructor
from repro.core.engine import NumericEngine
from repro.runtime import (
    EnginePlan,
    RunOptions,
    SerialExecutor,
    register_executor,
    unregister_executor,
)
from tests.helpers import assert_results_identical

#: An option ``src/`` does not know.  Module-level and re-homed so it
#: pickles by import path like any real options class.
Synthetic = dataclasses.make_dataclass(
    "Synthetic",
    [("flux", Optional[int], None)],
    bases=(RunOptions,),
    frozen=True,
)
Synthetic.__module__ = __name__

RECONSTRUCTORS = {
    "gd": GradientDecompositionReconstructor,
    "hve": HaloExchangeReconstructor,
    "serial": SerialReconstructor,
}
PLACED = ("gd", "hve")  # the solvers that have rank programs to place


def _params(name: str, lr: float) -> dict:
    params = {"iterations": 2, "lr": lr}
    if name != "serial":
        params["n_ranks"] = 2
    if name == "gd":
        params["mode"] = "synchronous"  # the mode that really batches
    return params


def _engine(dataset, **kwargs) -> NumericEngine:
    decomp = GradientDecompositionReconstructor(n_ranks=2).decompose(dataset)
    return NumericEngine(dataset, decomp, lr=0.1, **kwargs)


#: The four constructors that take run options.
CONSTRUCTORS = (*sorted(RECONSTRUCTORS), "engine")


def _construct(name: str, dataset, **kwargs):
    if name == "engine":
        return _engine(dataset, **kwargs)
    return RECONSTRUCTORS[name](**kwargs)


# ----------------------------------------------------------------------
# (i) a synthetic option arrives by identity
# ----------------------------------------------------------------------
@pytest.fixture()
def spy_executor():
    """Registers executor ``"spy"`` (the serial one, observed); yields
    the plan it was launched with and the engine it built."""
    seen = {}

    @register_executor("spy")
    class SpyExecutor(SerialExecutor):
        def launch(self, plan):
            session = super().launch(plan)
            seen.update(plan=plan, engine=session.engine)
            return session

    yield seen
    unregister_executor("spy")


@pytest.mark.parametrize("name", PLACED)
def test_synthetic_option_arrives_by_identity(
    spy_executor, tiny_dataset, tiny_lr, name
):
    options = Synthetic(executor="spy", flux=3)
    recon = RECONSTRUCTORS[name](**_params(name, tiny_lr), options=options)
    recon.reconstruct(tiny_dataset)
    assert recon.options is options
    assert spy_executor["plan"].options is options
    assert spy_executor["engine"].options is options
    assert spy_executor["engine"].options.flux == 3


@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="the recording hook reaches the workers through fork",
)
def test_process_workers_see_equal_options(
    tmp_path, monkeypatch, tiny_dataset, tiny_lr
):
    from_plan = NumericEngine.from_plan.__func__

    def recording(cls, plan, **placement):
        engine = from_plan(cls, plan, **placement)
        dump = tmp_path / f"worker-{os.getpid()}.pkl"
        dump.write_bytes(pickle.dumps(engine.options))
        return engine

    monkeypatch.setattr(NumericEngine, "from_plan", classmethod(recording))
    options = Synthetic(executor="process", runtime_workers=2, flux=3)
    GradientDecompositionReconstructor(
        **_params("gd", tiny_lr), options=options
    ).reconstruct(tiny_dataset)
    dumps = sorted(tmp_path.glob("worker-*.pkl"))
    assert len(dumps) == 2
    for dump in dumps:
        assert pickle.loads(dump.read_bytes()) == options


# ----------------------------------------------------------------------
# (ii) structure: the names are declared once
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_no_option_is_an_explicit_parameter(name):
    cls = RECONSTRUCTORS.get(name, NumericEngine)
    params = inspect.signature(cls.__init__).parameters
    assert not RunOptions.names() & set(params)
    assert params["options"].default is None
    assert params["option_fields"].kind is inspect.Parameter.VAR_KEYWORD


def test_plan_carries_the_options_as_one_field():
    plan_fields = {f.name for f in dataclasses.fields(EnginePlan)}
    assert not RunOptions.names() & plan_fields
    assert "options" in plan_fields
    assert len(plan_fields) == 10


def test_adapters_accept_the_options_they_honour():
    placement = {"executor", "runtime_workers"}
    for name in PLACED:
        assert get_solver(name).accepted_params >= RunOptions.names()
    serial = get_solver("serial").accepted_params
    assert serial >= RunOptions.names() - placement
    assert not serial & placement


# ----------------------------------------------------------------------
# (iii) behaviour kept
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(RECONSTRUCTORS))
def test_three_spellings_are_one_run(tiny_dataset, tiny_lr, name):
    cls, params = RECONSTRUCTORS[name], _params(name, tiny_lr)
    by_keyword = cls(**params, batch_size=3, probe_modes=2)
    by_object = cls(
        **params, options=RunOptions(batch_size=3, probe_modes=2)
    )
    assert by_keyword.options == by_object.options
    config = ReconstructionConfig(name, params, batch_size=3, probe_modes=2)
    assert solver_from_config(config).inner.options == by_object.options
    reference = by_keyword.reconstruct(tiny_dataset)
    assert_results_identical(reference, by_object.reconstruct(tiny_dataset))
    assert_results_identical(reference, repro.reconstruct(tiny_dataset, config))


@pytest.mark.parametrize("name", CONSTRUCTORS)
class TestEveryConstructor:
    def test_keywords_override_a_passed_options(self, tiny_dataset, name):
        base = RunOptions(batch_size=2, dtype="complex64")
        built = _construct(name, tiny_dataset, options=base, batch_size=5)
        assert built.options == RunOptions(batch_size=5, dtype="complex64")
        assert base.batch_size == 2  # frozen original untouched

    def test_unknown_keyword_is_a_type_error(self, tiny_dataset, name):
        with pytest.raises(TypeError, match="flux"):
            _construct(name, tiny_dataset, flux=3)

    @pytest.mark.parametrize(
        "field", ["runtime_workers", "batch_size", "probe_modes"]
    )
    @pytest.mark.parametrize("value", [0, -2])
    def test_non_positive_is_a_value_error(
        self, tiny_dataset, name, field, value
    ):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            _construct(name, tiny_dataset, **{field: value})


def test_options_are_frozen_and_pickle_round_trip(tiny_dataset):
    options = RunOptions(
        backend="threaded", dtype="complex64", executor="process",
        runtime_workers=2, data_source="/some/store.npz", batch_size=4,
        prefetch=1, positions=(0, 2, 5), probe_modes=2,
    )
    assert options.prefetch is True  # coerced to bool
    with pytest.raises(dataclasses.FrozenInstanceError):
        options.batch_size = 8
    assert pickle.loads(pickle.dumps(options)) == options
    synthetic = Synthetic(flux=3)
    assert pickle.loads(pickle.dumps(synthetic)) == synthetic
    # ... and so does the plan that carries them to spawned workers.
    recon = GradientDecompositionReconstructor(n_ranks=2, options=options)
    decomp = recon.decompose(tiny_dataset)
    plan = EnginePlan(
        dataset=tiny_dataset,
        decomp=decomp,
        schedule=recon.build_iteration_schedule(decomp),
        lr=0.1,
        options=recon.options,
    )
    assert pickle.loads(pickle.dumps(plan)).options == options


# ----------------------------------------------------------------------
# The serial solver keeps refusing placement
# ----------------------------------------------------------------------
class TestSerialRefusesPlacement:
    @pytest.mark.parametrize(
        "placement", [{"executor": "process"}, {"runtime_workers": 2}]
    )
    def test_direct_spelling_is_a_type_error(self, placement):
        with pytest.raises(TypeError, match="no rank programs to place"):
            SerialReconstructor(**placement)
        with pytest.raises(TypeError, match="no rank programs to place"):
            SerialReconstructor(options=RunOptions(**placement))

    @pytest.mark.parametrize(
        "placement", [{"executor": "process"}, {"runtime_workers": 2}]
    )
    def test_config_spelling_is_a_capability_error(self, placement):
        config = ReconstructionConfig("serial", {"iterations": 1}, **placement)
        with pytest.raises(SolverCapabilityError):
            solver_from_config(config)
        in_params = ReconstructionConfig(
            "serial", {"iterations": 1, **placement}
        )
        with pytest.raises(SolverCapabilityError):
            solver_from_config(in_params)
