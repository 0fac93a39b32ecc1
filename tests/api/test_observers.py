"""Observer/event API: event stream, checkpointing."""

import numpy as np
import pytest

from repro.api import (
    CheckpointPolicy,
    ReconstructionConfig,
    reconstruct,
)
from repro.baseline import HaloExchangeReconstructor, SerialReconstructor
from repro.core import GradientDecompositionReconstructor, ReconstructionResult
from repro.io import load_result


def _config(solver, lr, iterations=3):
    return ReconstructionConfig(
        solver, {"iterations": iterations, "lr": float(lr)}
    )


class TestEventStream:
    @pytest.mark.parametrize("solver", ["gd", "hve", "serial"])
    def test_one_event_per_iteration(self, tiny_dataset, tiny_lr, solver):
        events = []
        result = reconstruct(
            tiny_dataset, _config(solver, tiny_lr), observers=[events.append]
        )
        assert len(events) == 3
        assert [e.iteration for e in events] == [0, 1, 2]
        assert all(e.solver == solver for e in events)
        assert all(e.n_iterations == 3 for e in events)
        assert [e.cost for e in events] == result.history
        assert events[-1].is_last
        assert not events[0].is_last

    def test_elapsed_and_traffic_monotonic(self, tiny_dataset, tiny_lr):
        events = []
        reconstruct(
            tiny_dataset, _config("gd", tiny_lr), observers=[events.append]
        )
        elapsed = [e.elapsed_s for e in events]
        messages = [e.messages for e in events]
        assert elapsed == sorted(elapsed)
        assert messages == sorted(messages)
        assert messages[-1] > 0
        assert events[0].peak_memory_bytes > 0

    def test_multiple_observers_in_order(self, tiny_dataset, tiny_lr):
        seen = []
        reconstruct(
            tiny_dataset,
            _config("serial", tiny_lr, iterations=1),
            observers=[lambda e: seen.append("a"), lambda e: seen.append("b")],
        )
        assert seen == ["a", "b"]

    def test_snapshot_is_partial_result(self, tiny_dataset, tiny_lr):
        snapshots = []
        reconstruct(
            tiny_dataset,
            _config("gd", tiny_lr),
            observers=[lambda e: snapshots.append(e.snapshot())],
        )
        assert all(isinstance(s, ReconstructionResult) for s in snapshots)
        assert [len(s.history) for s in snapshots] == [1, 2, 3]
        assert snapshots[0].volume.shape == (
            tiny_dataset.n_slices,
            *tiny_dataset.object_shape,
        )

    def test_late_snapshot_is_self_consistent(self, tiny_dataset, tiny_lr):
        events = []
        result = reconstruct(
            tiny_dataset, _config("gd", tiny_lr), observers=[events.append]
        )
        # snapshot() called after the run reflects the *final* state in
        # full — history, volume and counters all describe one moment.
        late = events[0].snapshot()
        assert late.history == result.history
        assert late.messages == result.messages
        np.testing.assert_array_equal(late.volume, result.volume)

    def test_events_are_frozen(self, tiny_dataset, tiny_lr):
        events = []
        reconstruct(
            tiny_dataset,
            _config("serial", tiny_lr, iterations=1),
            observers=[events.append],
        )
        with pytest.raises(AttributeError):
            events[0].cost = 0.0


class TestCheckpointPolicy:
    def test_fires_every_n_iterations(self, tiny_dataset, tiny_lr, tmp_path):
        policy = CheckpointPolicy(tmp_path / "ck", every=2)
        reconstruct(
            tiny_dataset,
            _config("gd", tiny_lr, iterations=5),
            observers=[policy],
        )
        # iterations 2 and 4 of 5 (1-based cadence)
        assert [p.name for p in policy.saved_paths] == [
            "checkpoint_iter0002.npz",
            "checkpoint_iter0004.npz",
        ]
        assert policy.latest == policy.saved_paths[-1]

    def test_checkpoints_are_loadable_and_resumable(
        self, tiny_dataset, tiny_lr, tmp_path
    ):
        config = _config("gd", tiny_lr, iterations=4)
        policy = CheckpointPolicy(tmp_path, every=2, config=config)
        result = reconstruct(tiny_dataset, config, observers=[policy])

        archive = load_result(policy.latest)
        assert archive.config == config
        assert len(archive.history) == 4
        np.testing.assert_array_equal(archive.volume, result.volume)

        resumed = reconstruct(
            tiny_dataset,
            config.with_run_params(resume=str(policy.latest)),
        )
        assert resumed.history[:4] == result.history
        assert resumed.history[4] < result.history[0]

    def test_keep_last_prunes(self, tiny_dataset, tiny_lr, tmp_path):
        policy = CheckpointPolicy(tmp_path, every=1, keep_last=2)
        reconstruct(
            tiny_dataset,
            _config("serial", tiny_lr, iterations=5),
            observers=[policy],
        )
        assert len(policy.saved_paths) == 2
        assert sorted(p.name for p in tmp_path.glob("*.npz")) == [
            "checkpoint_iter0004.npz",
            "checkpoint_iter0005.npz",
        ]

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="every"):
            CheckpointPolicy(tmp_path, every=0)
        with pytest.raises(ValueError, match="keep_last"):
            CheckpointPolicy(tmp_path, keep_last=0)


class TestCallbackHookRemoved:
    """The pre-observer ``callback=`` hook is gone, not silently ignored."""

    @pytest.mark.parametrize(
        "recon",
        [
            GradientDecompositionReconstructor(n_ranks=2, iterations=1),
            HaloExchangeReconstructor(n_ranks=2, iterations=1),
            SerialReconstructor(iterations=1),
        ],
        ids=["gd", "hve", "serial"],
    )
    def test_callback_keyword_is_a_type_error(self, tiny_dataset, recon):
        with pytest.raises(TypeError, match="callback"):
            recon.reconstruct(tiny_dataset, callback=lambda *args: None)
