"""A run whose cost goes non-finite fails loudly.

At ``suggest_lr(alpha=1e4)`` every solver's history on ``tiny_dataset``
goes non-finite within five iterations: without the check in
``run_session``, gd and serial returned ``inf`` at iteration 4 and hve
``nan`` from iteration 0, with a non-finite volume.  Each now raises
:class:`repro.DivergenceError` before the diverged iteration's event, on
every executor, leaving no worker process or shared-memory segment
behind.  A cost that grows but stays finite is not flagged.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import CheckpointPolicy, reconstruct
from repro.api import ReconstructionConfig
from repro.cli import main
from repro.core.reconstructor import LegFailedError
from repro.io import load_result, save_dataset, save_result
from repro.physics.dataset import suggest_lr

DIVERGENT_ALPHA = 1e4
GROWING_ALPHA = 5.0  # cost grows ~1e8x over 5 iterations, stays finite
# gd synchronous on tiny_dataset diverges at run iteration 3 of 4: in
# leg 2 of a 2+2 resume chain, and on the first iteration of leg 2 of a
# 3+1 chain.
LATE_ALPHA = 1e8
SRC = Path(__file__).resolve().parents[2] / "src"


def _config(solver, lr, executor=None, iterations=5):
    params = {"iterations": iterations, "lr": lr}
    if solver != "serial":
        params["n_ranks"] = 4
    if solver == "gd":
        params["mode"] = "synchronous"
    return ReconstructionConfig(
        solver=solver, solver_params=params, executor=executor
    )


def _shm_segments():
    return set(os.listdir("/dev/shm"))


@pytest.fixture(scope="module")
def divergent_lr(tiny_dataset):
    return suggest_lr(tiny_dataset, alpha=DIVERGENT_ALPHA)


@pytest.fixture(autouse=True)
def _quiet_overflow():
    # A diverging run overflows on the way; numpy's warnings are noise.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def _diverge(dataset, config, observers=()):
    with pytest.raises(repro.DivergenceError) as info:
        reconstruct(dataset, config, observers=list(observers))
    return info.value


class TestSolversRaise:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("solver", ["gd", "hve"])
    def test_raises_before_the_diverged_event(
        self, tiny_dataset, divergent_lr, solver, executor
    ):
        segments = _shm_segments()
        events = []
        error = _diverge(
            tiny_dataset, _config(solver, divergent_lr, executor),
            [events.append],
        )
        assert error.solver == solver
        assert error.iteration < 5
        # Every iteration before the diverged one was emitted, and it
        # was not: its cost is the last finite one.
        assert [e.iteration for e in events] == list(range(error.iteration))
        assert all(math.isfinite(e.cost) for e in events)
        assert error.last_finite_cost == (events[-1].cost if events else None)
        # The session closed on the way out: no worker, no segment.
        assert multiprocessing.active_children() == []
        assert _shm_segments() - segments == set()

    def test_serial_solver_raises(self, tiny_dataset, divergent_lr):
        error = _diverge(tiny_dataset, _config("serial", divergent_lr))
        assert (error.solver, error.iteration) == ("serial", 4)
        assert math.isfinite(error.last_finite_cost)

    def test_streamed_run_raises(self, tiny_dataset, divergent_lr):
        config = replace(
            _config("gd", divergent_lr),
            scan_source={"kind": "replay", "waves": 2},
        )
        events = []
        error = _diverge(tiny_dataset, config, [events.append])
        assert error.solver == "gd"
        # Run-global, like the events: not the diverging epoch's count.
        assert error.iteration == len(events) > 0
        assert error.last_finite_cost == events[-1].cost

    def test_finite_growth_is_not_flagged(self, tiny_dataset):
        lr = suggest_lr(tiny_dataset, alpha=GROWING_ALPHA)
        result = reconstruct(tiny_dataset, _config("gd", lr))
        assert result.history[-1] > 1e6 * result.history[0]
        assert np.isfinite(result.volume).all()


class TestNothingNonFiniteIsKept:
    def test_checkpoints_hold_only_finite_states(
        self, tiny_dataset, divergent_lr, tmp_path
    ):
        policy = CheckpointPolicy(tmp_path, every=1)
        error = _diverge(
            tiny_dataset, _config("gd", divergent_lr), [policy]
        )
        archives = sorted(tmp_path.glob("checkpoint_*.npz"))
        assert len(archives) == error.iteration > 0
        for path in archives:
            archive = load_result(path)
            assert np.isfinite(archive.history).all()
            assert np.isfinite(archive.volume).all()

    def test_cli_reports_divergence_and_writes_nothing(
        self, tiny_dataset, divergent_lr, tmp_path, capsys
    ):
        dataset = save_dataset(tmp_path / "ds.npz", tiny_dataset)
        out = tmp_path / "rec.npz"
        code = main([
            "reconstruct", "--dataset", str(dataset), "--algorithm", "gd",
            "--ranks", "4", "--iterations", "5", "--lr", str(divergent_lr),
            "--out", str(out),
        ])
        assert code == 2
        assert "diverged at iteration" in capsys.readouterr().err
        assert not out.exists()


class TestRunGlobalError:
    """A leg that continues a run reports the run's iteration and last
    finite cost — what the uninterrupted run reports."""

    @pytest.mark.parametrize("first", [2, 3])
    def test_resumed_leg_reports_the_run(self, tiny_dataset, tmp_path, first):
        lr = suggest_lr(tiny_dataset, alpha=LATE_ALPHA)
        straight = _diverge(tiny_dataset, _config("gd", lr, iterations=4))
        assert straight.iteration == 3
        leg1 = reconstruct(tiny_dataset, _config("gd", lr, iterations=first))
        seed = save_result(tmp_path / "leg1.npz", leg1)
        config = _config("gd", lr, iterations=4 - first).with_run_params(
            resume=str(seed)
        )
        error = _diverge(tiny_dataset, config)
        assert error.iteration == straight.iteration
        assert error.last_finite_cost == straight.last_finite_cost
        assert str(error) == str(straight)


class TestSnapshotAfterDivergence:
    """A snapshot taken after its leg diverged is refused the same way
    on every executor: the serial tiles hold the diverged iterate and a
    process session's shared memory is gone, and neither may be
    stitched into a result."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_raises_leg_failed(self, tiny_dataset, executor):
        lr = suggest_lr(tiny_dataset, alpha=LATE_ALPHA)
        events = []
        error = _diverge(
            tiny_dataset, _config("gd", lr, executor, iterations=4),
            [events.append],
        )
        assert len(events) == error.iteration > 0
        with pytest.raises(LegFailedError, match="gd leg failed"):
            events[-1].snapshot()


def _cli_diverge(dataset, out, lr, executor):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("PYTHONWARNINGS", None)  # default filters: a warning shows
    return subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "reconstruct",
            "--dataset", str(dataset), "--algorithm", "gd", "--ranks", "4",
            "--iterations", "5", "--lr", str(lr), "--executor", executor,
            "--out", str(out),
        ],
        capture_output=True, text=True, env=env, timeout=300,
    )


class TestQuietDivergence:
    """The diverging run's numpy overflow/invalid warnings no longer
    reach stderr, in-process or from rank workers: the one-line error
    is all a user sees."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_stderr_holds_only_the_error(
        self, tiny_dataset, divergent_lr, tmp_path, executor
    ):
        dataset = save_dataset(tmp_path / "ds.npz", tiny_dataset)
        out = tmp_path / "rec.npz"
        proc = _cli_diverge(dataset, out, divergent_lr, executor)
        assert proc.returncode == 2, proc.stderr
        assert "RuntimeWarning" not in proc.stderr, proc.stderr
        assert "reconstruct: error: gd diverged at iteration" in proc.stderr
        assert not out.exists()
