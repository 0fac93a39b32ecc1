"""Streaming parity: the acceptance gates of the live-acquisition layer.

Two invariants, both bit-exact (``tests.helpers.result_fingerprint``):

* **Full pre-arrival** — a streamed run whose every frame arrives
  before iteration 0 is *identical* to the static ``InMemoryStore``
  path: the epoch driver collapses to one unrestricted epoch reading
  from a :class:`~repro.data.StreamingStore`.
* **Wave parity** — a K-wave streamed run equals K static runs with
  ``positions`` pinned to the same coverage snapshots, each warm-started
  from its predecessor's volume.  That is the *definition* of the epoch
  driver, replayed here through the public API only.

Tier-1 covers gd/hve on the serial executor plus the serial reference;
the process-executor cross-products are ``slow`` (CI also re-runs this
file under ``REPRO_EXECUTOR=process``, which retargets the ambient
``executor=None`` configs used below).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.api import ReconstructionConfig, reconstruct
from repro.data import WaveSchedule

from tests.helpers import assert_results_identical, result_fingerprint

ITERS = 3

SOLVERS = {
    "gd": lambda lr: {"n_ranks": 4, "iterations": ITERS, "lr": lr,
                      "mode": "synchronous"},
    "hve": lambda lr: {"n_ranks": 4, "iterations": ITERS, "lr": lr},
    "serial": lambda lr: {"iterations": ITERS, "lr": lr},
}


def _config(solver, lr, executor=None):
    return ReconstructionConfig(
        solver=solver,
        solver_params=SOLVERS[solver](lr),
        executor=executor,
    )


def _coverage_points(dataset, n_waves):
    """The coverage snapshots a ``replay``/``n_waves`` schedule visits,
    derived from the wave layout itself (not from driver internals)."""
    source = WaveSchedule.replay(dataset.amplitudes, n_waves)
    points, acc = [], []
    for wave in source.waves:
        acc.extend(wave.frames)
        points.append(tuple(sorted(acc)))
    return points


def _static_replay(dataset, config, points, total):
    """K static runs restarted at each coverage snapshot — the
    ground-truth decomposition of a wave-streamed run."""
    volume, history, messages = None, [], 0
    for k, covered in enumerate(points):
        params = dict(config.solver_params)
        params["iterations"] = (
            1 if k < len(points) - 1 else total - (len(points) - 1)
        )
        if len(covered) < dataset.n_probes:
            params["positions"] = list(covered)
        leg = reconstruct(
            dataset,
            ReconstructionConfig(
                solver=config.solver,
                solver_params=params,
                executor=config.executor,
            ),
            initial_volume=volume,
        )
        volume = leg.volume
        history.extend(leg.history)
        messages += leg.messages
    return volume, history, messages


class TestFullPreArrival:
    """One wave delivering everything at sweep 0 == the static path."""

    @pytest.mark.parametrize("solver", ["gd", "hve", "serial"])
    def test_identical_to_static(self, tiny_dataset, tiny_lr, solver):
        config = _config(solver, tiny_lr)
        static = reconstruct(tiny_dataset, config)
        streamed = reconstruct(
            tiny_dataset,
            replace(config, scan_source={"kind": "replay", "waves": 1}),
        )
        assert_results_identical(static, streamed)
        assert result_fingerprint(static) == result_fingerprint(streamed)

    def test_out_of_order_arrival_is_still_identical(
        self, tiny_dataset, tiny_lr
    ):
        # Arrival *order* must not matter once coverage is full: deliver
        # every frame at sweep 0 but scrambled.
        n = tiny_dataset.n_probes
        scrambled = list(reversed(range(n)))
        config = _config("gd", tiny_lr)
        static = reconstruct(tiny_dataset, config)
        streamed = reconstruct(
            tiny_dataset,
            replace(config, scan_source={
                "kind": "simulated",
                "waves": [{"frames": scrambled, "after_sweep": 0,
                           "end_of_scan": True}],
            }),
        )
        assert_results_identical(static, streamed)

    @pytest.mark.slow
    @pytest.mark.parametrize("solver", ["gd", "hve"])
    def test_identical_on_process_executor(
        self, tiny_dataset, tiny_lr, solver
    ):
        config = _config(solver, tiny_lr, executor="process")
        static = reconstruct(tiny_dataset, config)
        streamed = reconstruct(
            tiny_dataset,
            replace(config, scan_source={"kind": "replay", "waves": 1}),
        )
        assert_results_identical(static, streamed)


class TestWaveParity:
    """K waves == K static runs restarted at the coverage snapshots."""

    @pytest.mark.parametrize("solver", ["gd", "hve", "serial"])
    def test_matches_static_replays(self, tiny_dataset, tiny_lr, solver):
        config = _config(solver, tiny_lr)
        streamed = reconstruct(
            tiny_dataset,
            replace(config, scan_source={"kind": "replay", "waves": 3}),
        )
        points = _coverage_points(tiny_dataset, 3)
        volume, history, messages = _static_replay(
            tiny_dataset, config, points, ITERS
        )
        assert np.array_equal(streamed.volume, volume)
        assert streamed.history == history
        assert streamed.messages == messages

    @pytest.mark.slow
    @pytest.mark.parametrize("solver", ["gd", "hve"])
    def test_matches_static_replays_process(
        self, tiny_dataset, tiny_lr, solver
    ):
        config = _config(solver, tiny_lr, executor="process")
        streamed = reconstruct(
            tiny_dataset,
            replace(config, scan_source={"kind": "replay", "waves": 3}),
        )
        points = _coverage_points(tiny_dataset, 3)
        volume, history, _ = _static_replay(
            tiny_dataset, config, points, ITERS
        )
        assert np.array_equal(streamed.volume, volume)
        assert streamed.history == history


class TestStreamPolicyKnobs:
    def test_restart_on_growth(self, tiny_dataset, tiny_lr):
        # on_growth="restart" discards the warm start whenever coverage
        # grows, so the final epoch (full coverage) starts from vacuum —
        # its outcome equals a plain static run with that epoch's budget.
        config = _config("gd", tiny_lr)
        streamed = reconstruct(
            tiny_dataset,
            replace(
                config,
                scan_source={"kind": "replay", "waves": 2},
                stream_policy={"on_growth": "restart"},
            ),
        )
        static = reconstruct(
            tiny_dataset, config.with_solver_params(iterations=ITERS - 1)
        )
        assert np.array_equal(streamed.volume, static.volume)
        assert streamed.history[1:] == static.history
        assert len(streamed.history) == ITERS

    def test_reweight_scales_lr_by_coverage(self, tiny_dataset, tiny_lr):
        # With reweight on, a partial epoch steps with
        # lr * advertised/covered; the full-coverage epochs of a 2-wave
        # run keep the base lr, so only the first iteration differs from
        # the unweighted stream.
        config = _config("gd", tiny_lr)
        spec = {"kind": "replay", "waves": 2}
        plain = reconstruct(tiny_dataset, replace(config, scan_source=spec))
        weighted = reconstruct(
            tiny_dataset,
            replace(
                config, scan_source=spec, stream_policy={"reweight": True}
            ),
        )
        # The sweep cost of an iteration is evaluated before its update,
        # so the scaled step shows up from the *next* iteration on.
        assert plain.history[1:] != weighted.history[1:]
        assert not np.array_equal(plain.volume, weighted.volume)

    def test_reweight_requires_explicit_lr(self, tiny_dataset):
        config = ReconstructionConfig(
            solver="gd",
            solver_params={"n_ranks": 4, "iterations": 2},
            scan_source={"kind": "replay", "waves": 2},
            stream_policy={"reweight": True},
        )
        with pytest.raises(ValueError, match="reweight"):
            reconstruct(tiny_dataset, config)

    def test_sweeps_per_epoch_batches_the_waves(self, tiny_dataset, tiny_lr):
        # sweeps_per_epoch=ITERS makes the first (partial) epoch consume
        # the whole budget: the run never sees the later waves.
        config = _config("gd", tiny_lr)
        streamed = reconstruct(
            tiny_dataset,
            replace(
                config,
                scan_source={"kind": "replay", "waves": 3},
                stream_policy={"sweeps_per_epoch": ITERS},
            ),
        )
        points = _coverage_points(tiny_dataset, 3)
        params = dict(config.solver_params)
        params["positions"] = list(points[0])
        static = reconstruct(
            tiny_dataset,
            ReconstructionConfig(solver="gd", solver_params=params),
        )
        assert np.array_equal(streamed.volume, static.volume)


class TestConfigSurface:
    def test_scan_source_is_fingerprint_neutral(self, tiny_lr):
        config = _config("gd", tiny_lr)
        streamed = replace(
            config,
            scan_source={"kind": "replay", "waves": 4},
            stream_policy={"sweeps_per_epoch": 2},
        )
        assert config.fingerprint() == streamed.fingerprint()

    def test_scan_source_round_trips_json(self, tiny_lr):
        config = replace(
            _config("gd", tiny_lr),
            scan_source={"kind": "replay", "waves": 4},
            stream_policy={"wait_timeout_s": 5.0},
        )
        again = ReconstructionConfig.from_json(config.to_json())
        assert dict(again.scan_source) == {"kind": "replay", "waves": 4}
        assert dict(again.stream_policy) == {"wait_timeout_s": 5.0}

    def test_scan_source_excludes_data_source(self, tiny_lr):
        with pytest.raises(ValueError, match="mutually exclusive"):
            ReconstructionConfig(
                solver="gd",
                solver_params={"n_ranks": 4},
                data_source="store.npz",
                scan_source={"kind": "replay"},
            )

    def test_stream_offset_is_not_a_run_param(self, tiny_dataset, tiny_lr):
        """A resumed stream fast-forwards by its resume archive's
        history; there is no offset to pass."""
        config = replace(
            _config("gd", tiny_lr), scan_source={"kind": "replay"}
        ).with_run_params(stream_offset=2)
        with pytest.raises(ValueError, match="unknown run_params"):
            reconstruct(tiny_dataset, config)
