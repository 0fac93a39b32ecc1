"""Fault injection for the streaming layer: stalls, truncated scans and
malformed schedules must fail (or settle) pointedly — never hang, never
leak the feeder thread.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.api import ReconstructionConfig, reconstruct
from repro.data import StreamError, StreamTimeout


def _feeder_threads():
    return [
        t for t in threading.enumerate() if t.name.startswith("stream-feeder")
    ]


def _gd(lr, iterations=3, **stream):
    return ReconstructionConfig(
        solver="gd",
        solver_params={
            "n_ranks": 4, "iterations": iterations, "lr": lr,
            "mode": "synchronous",
        },
        **stream,
    )


class TestStall:
    def test_stalled_source_raises_stream_timeout(self, tiny_dataset, tiny_lr):
        # First wave lands quickly; the rest of the scan stalls far past
        # the policy timeout.  The run must surface StreamTimeout at the
        # wait (not hang for the stalled delivery) and join the feeder.
        n = tiny_dataset.n_probes
        config = _gd(
            tiny_lr,
            scan_source={
                "kind": "simulated",
                "waves": [
                    {"frames": list(range(4)), "delay_s": 0.01},
                    {"frames": list(range(4, n)), "delay_s": 60.0},
                ],
            },
            stream_policy={"wait_timeout_s": 0.25},
        )
        with pytest.raises(StreamTimeout):
            reconstruct(tiny_dataset, config)
        for thread in _feeder_threads():
            thread.join(timeout=5.0)
        assert _feeder_threads() == []

    def test_stall_before_first_frame_raises(self, tiny_dataset, tiny_lr):
        config = _gd(
            tiny_lr,
            scan_source={
                "kind": "simulated",
                "waves": [{"count": tiny_dataset.n_probes, "delay_s": 60.0}],
            },
            stream_policy={"wait_timeout_s": 0.25},
        )
        with pytest.raises(StreamTimeout):
            reconstruct(tiny_dataset, config)
        for thread in _feeder_threads():
            thread.join(timeout=5.0)
        assert _feeder_threads() == []


class TestTruncatedScan:
    def test_end_of_scan_short_of_advertised_settles(
        self, tiny_dataset, tiny_lr
    ):
        # The scan ends after 5 of the advertised 9 frames: the run must
        # settle gracefully — every remaining iteration sweeps the
        # frames that DID arrive, exactly like a static run restricted
        # to those positions.
        config = _gd(
            tiny_lr,
            scan_source={
                "kind": "simulated",
                "waves": [{"count": 5, "after_sweep": 0,
                           "end_of_scan": True}],
            },
        )
        streamed = reconstruct(tiny_dataset, config)
        params = {
            "n_ranks": 4, "iterations": 3, "lr": tiny_lr,
            "mode": "synchronous", "positions": list(range(5)),
        }
        static = reconstruct(
            tiny_dataset,
            ReconstructionConfig(solver="gd", solver_params=params),
        )
        assert np.array_equal(streamed.volume, static.volume)
        assert streamed.history == static.history


class TestMalformedSchedules:
    def test_no_frames_before_first_sweep_is_pointed(
        self, tiny_dataset, tiny_lr
    ):
        # A sweep-keyed schedule whose first wave only lands after sweep
        # 1 can never start; the driver says so instead of sweeping an
        # empty scan.
        config = _gd(
            tiny_lr,
            scan_source={
                "kind": "simulated",
                "waves": [{"count": tiny_dataset.n_probes,
                           "after_sweep": 1}],
            },
        )
        with pytest.raises(StreamError, match="min_start_frames"):
            reconstruct(tiny_dataset, config)

    def test_mixed_sweep_and_timed_gating_rejected(
        self, tiny_dataset, tiny_lr
    ):
        config = _gd(
            tiny_lr,
            scan_source={
                "kind": "simulated",
                "waves": [
                    {"frames": [0], "after_sweep": 0},
                    {"frames": [1], "delay_s": 0.5},
                ],
            },
        )
        with pytest.raises(StreamError, match="mix"):
            reconstruct(tiny_dataset, config)

    def test_geometry_mismatch_rejected(self, tiny_dataset, tiny_lr):
        config = _gd(
            tiny_lr,
            scan_source={"kind": "replay", "waves": 2},
        )
        # Lie about the dataset by streaming a different acquisition's
        # frame count through the spec: simulate with advertised != n.
        bad = _gd(
            tiny_lr,
            scan_source={
                "kind": "simulated",
                "waves": [{"count": 4, "end_of_scan": True,
                           "after_sweep": 0}],
                "advertised": 4,
            },
        )
        with pytest.raises(StreamError, match="advertises"):
            reconstruct(tiny_dataset, bad)
        # The well-formed replay spec still runs.
        assert reconstruct(tiny_dataset, config).n_iterations == 3


class TestTimedCompletion:
    def test_timed_schedule_completes_and_joins_feeder(
        self, tiny_dataset, tiny_lr
    ):
        # A healthy timed source (short delays, full delivery) runs to
        # the full iteration budget and leaves no feeder thread behind.
        n = tiny_dataset.n_probes
        config = _gd(
            tiny_lr,
            scan_source={
                "kind": "simulated",
                "waves": [
                    {"frames": list(range(4)), "delay_s": 0.01},
                    {"frames": list(range(4, n)), "delay_s": 0.02},
                ],
            },
            stream_policy={"wait_timeout_s": 10.0},
        )
        result = reconstruct(tiny_dataset, config)
        assert result.n_iterations == 3
        assert _feeder_threads() == []

    def test_traced_stream_records_epoch_counters(
        self, tiny_dataset, tiny_lr
    ):
        config = replace(
            _gd(tiny_lr, scan_source={"kind": "replay", "waves": 3}),
            telemetry=True,
        )
        result = reconstruct(tiny_dataset, config)
        counters = result.telemetry["counters"]
        assert counters["stream.epochs"] == 3
        assert counters["stream.frames_arrived"] == tiny_dataset.n_probes
