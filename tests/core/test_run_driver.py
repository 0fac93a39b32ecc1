"""The one run driver (``run_plan`` = resolve + launch + ``run_session``)
and the one plan → engine mapping (``NumericEngine.from_plan``).

A fake :class:`ExecutionSession`, registered as an executor, pins the
loop's contract — how often it steps, what an event carries, when a
snapshot is taken, that the session is closed on every exit path; the
real executors pin that gd and hve through the driver still hit the
golden digests; and a sweep over ``dataclasses.fields(EnginePlan)`` pins
that no plan field is dropped on the way into the engine (the run
options travel as one object — ``tests/runtime/test_run_options.py``
pins that it arrives by identity).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import GradientDecompositionReconstructor
from repro.core.engine import NumericEngine
from repro.core.reconstructor import run_plan
from repro.obs import telemetry as obs
from repro.runtime import RunOptions
from repro.runtime.executor import (
    EnginePlan,
    ExecutionSession,
    Executor,
    register_executor,
    unregister_executor,
)
from tests.golden import cases
from tests.helpers import result_fingerprint


# ----------------------------------------------------------------------
# A scripted session behind the executor registry
# ----------------------------------------------------------------------
class FakeSession(ExecutionSession):
    """Steps a counter: iteration ``k`` costs ``10 - k``, sends 3 more
    messages / 64 more bytes, raises rank 1's peak, and writes ``k + 1``
    into every tile — so each observable names the step it came from."""

    def __init__(self, plan: EnginePlan, fail_at: int = -1) -> None:
        self.plan = plan
        self.fail_at = fail_at
        self.steps = 0
        self.closed = 0
        self._tiles = [
            np.zeros(
                (plan.dataset.n_slices, t.ext.height, t.ext.width),
                dtype=np.complex128,
            )
            for t in plan.decomp.tiles
        ]

    def step(self) -> float:
        if self.steps == self.fail_at:
            raise RuntimeError("step failed")
        self.steps += 1
        for tile in self._tiles:
            tile[...] = self.steps
        return 10.0 - (self.steps - 1)

    def volumes(self):
        return self._tiles

    def probe(self):
        return None

    @property
    def messages(self) -> int:
        return 3 * self.steps

    @property
    def message_bytes(self) -> int:
        return 64 * self.steps

    @property
    def per_rank_peaks(self):
        return [100, 100 + 20 * self.steps]

    def close(self) -> None:
        self.closed += 1


@pytest.fixture()
def fake_executor():
    """Registers executor ``"fake"``; yields the list of sessions it
    launched (and the ``fail_at`` knob as ``launched.fail_at``)."""

    class Launched(list):
        fail_at = -1

    launched = Launched()

    @register_executor("fake")
    class FakeExecutor(Executor):
        def launch(self, plan):
            launched.append(FakeSession(plan, launched.fail_at))
            return launched[-1]

    yield launched
    unregister_executor("fake")


@pytest.fixture()
def plan(tiny_dataset):
    recon = GradientDecompositionReconstructor(n_ranks=2, iterations=1)
    decomp = recon.decompose(tiny_dataset)
    return EnginePlan(
        dataset=tiny_dataset,
        decomp=decomp,
        schedule=recon.build_iteration_schedule(decomp),
        lr=0.1,
        options=RunOptions(executor="fake"),
    )


class TestLoopContract:
    def test_steps_exactly_iterations_times(self, fake_executor, plan):
        result = run_plan("fake-solver", plan, 5)
        (session,) = fake_executor
        assert session.steps == 5
        assert result.history == [10.0, 9.0, 8.0, 7.0, 6.0]
        assert (result.messages, result.message_bytes) == (15, 320)
        assert result.peak_memory_per_rank == [100, 200]
        assert result.decomposition is plan.decomp
        assert result.probe is None
        # Stitched from the live tiles after the last step.
        assert np.all(result.volume == 5)

    def test_event_fields_match_the_session(self, fake_executor, plan):
        events = []
        run_plan("fake-solver", plan, 3, [events.append])
        assert [e.solver for e in events] == ["fake-solver"] * 3
        assert [e.iteration for e in events] == [0, 1, 2]
        assert [e.n_iterations for e in events] == [3, 3, 3]
        assert [e.cost for e in events] == [10.0, 9.0, 8.0]
        assert [e.messages for e in events] == [3, 6, 9]
        assert [e.message_bytes for e in events] == [64, 128, 192]
        assert [e.peak_memory_bytes for e in events] == [110.0, 120.0, 130.0]
        elapsed = [e.elapsed_s for e in events]
        assert elapsed == sorted(elapsed) and elapsed[0] >= 0.0
        assert [e.is_last for e in events] == [False, False, True]

    def test_snapshot_describes_the_state_at_call_time(
        self, fake_executor, plan
    ):
        during, events = [], []

        def observer(event):
            events.append(event)
            during.append(event.snapshot())

        result = run_plan("fake-solver", plan, 3, [observer])
        for k, snap in enumerate(during):
            assert snap.history == result.history[: k + 1]
            assert np.all(snap.volume == k + 1)
            assert snap.messages == 3 * (k + 1)
            assert snap.peak_memory_per_rank == [100, 100 + 20 * (k + 1)]
        # A thunk kept past its iteration is *live*, not frozen: called
        # after the run it describes the final state.
        late = events[0].snapshot()
        assert late.history == result.history
        assert np.all(late.volume == 3)

    def test_no_observers_never_snapshots_mid_run(
        self, fake_executor, plan, monkeypatch
    ):
        stitched = []
        original = FakeSession.volumes

        def counting(self):
            stitched.append(self.steps)
            return original(self)

        monkeypatch.setattr(FakeSession, "volumes", counting)
        run_plan("fake-solver", plan, 4)
        assert stitched == [4]  # the final result only

    def test_plan_telemetry_follows_the_active_recorder(
        self, fake_executor, plan
    ):
        run_plan("fake-solver", plan, 1)
        with obs.activate(obs.Telemetry()) as tel:
            run_plan("fake-solver", plan, 2)
        untraced, traced = fake_executor
        assert untraced.plan.telemetry is False
        assert traced.plan.telemetry is True
        assert plan.telemetry is False  # the caller's plan is not mutated
        spans = [
            args for name, _, _, _, args in tel.events_snapshot()
            if name == "run.iteration"
        ]
        assert spans == [{"iteration": 0}, {"iteration": 1}]


class TestSessionIsAlwaysClosed:
    def test_closed_once_on_normal_return(self, fake_executor, plan):
        run_plan("fake-solver", plan, 2)
        assert [s.closed for s in fake_executor] == [1]

    def test_closed_once_when_step_raises(self, fake_executor, plan):
        fake_executor.fail_at = 1
        with pytest.raises(RuntimeError, match="step failed"):
            run_plan("fake-solver", plan, 3)
        (session,) = fake_executor
        assert (session.steps, session.closed) == (1, 1)

    def test_closed_once_when_an_observer_raises(self, fake_executor, plan):
        class Interrupt(Exception):
            pass

        def observer(event):
            if event.iteration == 1:
                raise Interrupt

        with pytest.raises(Interrupt):
            run_plan("fake-solver", plan, 5, [observer])
        (session,) = fake_executor
        assert (session.steps, session.closed) == (2, 1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_closed_once_when_the_cost_is_not_finite(
        self, fake_executor, plan, monkeypatch, bad
    ):
        original = FakeSession.step

        def step(self):
            cost = original(self)
            return bad if self.steps == 3 else cost

        monkeypatch.setattr(FakeSession, "step", step)
        events = []
        with pytest.raises(repro.DivergenceError) as info:
            run_plan("fake-solver", plan, 5, [events.append])
        (session,) = fake_executor
        assert (session.steps, session.closed) == (3, 1)
        # Raised before the third iteration's event, naming the last
        # finite cost.
        assert [e.cost for e in events] == [10.0, 9.0]
        error = info.value
        assert (error.solver, error.iteration, error.last_finite_cost) == (
            "fake-solver", 2, 9.0
        )


# ----------------------------------------------------------------------
# Real executors: the driver reproduces the golden digests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden_digests():
    path = Path(cases.__file__).resolve().parent / "goldens.json"
    return json.loads(path.read_text())["cases"]


@pytest.fixture(scope="module")
def golden_dataset():
    return cases.golden_dataset()


@pytest.mark.parametrize("executor", ["serial", "process"])
@pytest.mark.parametrize(
    "case", ["gd_alg1", "gd_synchronous_batched", "gd_probe_refine", "hve"]
)
def test_driver_reproduces_goldens(
    golden_dataset, golden_digests, case, executor
):
    config = cases.golden_configs()[case].with_runtime(executor, 2)
    result = repro.reconstruct(golden_dataset, config)
    assert result_fingerprint(result) == golden_digests[case]


# ----------------------------------------------------------------------
# Every plan knob reaches the engine
# ----------------------------------------------------------------------
#: Plan fields the *session* consumes, not the engine: the schedule is
#: executed by it, the telemetry flag picks the worker's recorder.
_SESSION_FIELDS = {"schedule", "telemetry"}


class _SpyEngine(NumericEngine):
    """Records the constructor call ``from_plan`` makes."""

    def __init__(self, dataset, decomp, **kwargs):
        self.seen = {"dataset": dataset, "decomp": decomp, **kwargs}


#: A value unlike the default for every engine-level plan field.  A new
#: ``EnginePlan`` field fails the sweep below with a ``KeyError`` until
#: it is listed here (or in ``_SESSION_FIELDS``) — i.e. until someone
#: has decided where it goes.
_NON_DEFAULT = {
    "dataset": object(),
    "decomp": object(),
    "lr": 1.25,
    "compensate_local": True,
    "initial_probe": np.ones((2, 2)),
    "refine_probe": True,
    "initial_volume": np.ones((1, 2, 2)),
    "options": RunOptions(
        backend="threaded",
        dtype="complex64",
        data_source="/somewhere/store.npz",
        batch_size=7,
        prefetch=True,
        probe_modes=3,
    ),
}


@pytest.mark.parametrize(
    "name",
    [
        f.name
        for f in dataclasses.fields(EnginePlan)
        if f.name not in _SESSION_FIELDS
    ],
)
def test_from_plan_forwards_every_engine_field(plan, name):
    value = _NON_DEFAULT[name]
    assert value is not getattr(plan, name)
    seen = _SpyEngine.from_plan(dataclasses.replace(plan, **{name: value})).seen
    assert seen[name] is value
    # ... and nothing else moved.
    baseline = _SpyEngine.from_plan(plan).seen
    assert [k for k in seen if seen[k] is not baseline[k]] == [name]


def test_from_plan_placement_keywords(plan):
    """What placement adds rides next to the plan's fields; a worker's
    re-opened store replaces the plan's source, ``None`` keeps it."""
    stored = dataclasses.replace(
        plan,
        options=dataclasses.replace(
            plan.options, data_source="/plan/store.npz"
        ),
    )
    comm, shared = object(), {("volume", 0): np.zeros(1)}
    seen = _SpyEngine.from_plan(
        stored, comm=comm, ranks=(1,), shared_arrays=shared,
        data_source="/worker/copy.npz",
    ).seen
    assert seen["comm"] is comm
    assert seen["ranks"] == (1,)
    assert seen["shared_arrays"] is shared
    assert seen["options"].data_source == "/worker/copy.npz"
    assert _SpyEngine.from_plan(stored).seen["options"] is stored.options
