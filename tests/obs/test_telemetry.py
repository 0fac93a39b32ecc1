"""Telemetry core: recording, merging, enablement, and the null path.

The two load-bearing guarantees here are (1) precedence — an explicit
config value always beats ``REPRO_TRACE`` — and (2) the disabled
recorder being cheap enough that tier-1 can pin a per-call budget on
the hot-path guard.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs import telemetry as obs
from repro.obs.telemetry import (
    ENV_TRACE,
    NULL_TELEMETRY,
    BREAKDOWN_KEYS,
    NullTelemetry,
    Telemetry,
    activate,
    current,
    default_telemetry_enabled,
    resolve_telemetry,
)


class TestRecording:
    def test_span_aggregates_calls_and_seconds(self):
        tel = Telemetry()
        for _ in range(3):
            with tel.span("engine.compute", rank=1):
                pass
        summary = tel.summary()
        assert summary["phases"]["engine.compute"]["calls"] == 3
        assert summary["phases"]["engine.compute"]["seconds"] >= 0.0
        assert summary["ranks"]["1"]["engine.compute"] >= 0.0

    def test_span_records_raw_event_with_args(self):
        tel = Telemetry()
        with tel.span("run.iteration", iteration=4):
            pass
        ((name, rank, t0, t1, args),) = tel.events_snapshot()
        assert name == "run.iteration"
        assert rank is None
        assert t1 >= t0 >= tel.epoch
        assert args == {"iteration": 4}

    def test_counters_accumulate(self):
        tel = Telemetry()
        tel.count("fft.calls")
        tel.count("fft.calls", 2.0)
        tel.add({"fft.calls": 1.0, "fft.seconds": 0.5})
        counters = tel.counters_snapshot()
        assert counters["fft.calls"] == 4.0
        assert counters["fft.seconds"] == 0.5

    def test_phase_label_tracks_last_opened_span(self):
        tel = Telemetry()
        assert tel.phase_label() is None
        with tel.span("engine.compute"):
            assert tel.phase_label() == "engine.compute"

    def test_max_events_drops_are_counted_never_silent(self):
        tel = Telemetry(max_events=2)
        for _ in range(5):
            with tel.span("x"):
                pass
        summary = tel.summary()
        assert summary["events_recorded"] == 2
        assert summary["events_dropped"] == 3
        # Aggregates keep counting past the raw-event bound.
        assert summary["phases"]["x"]["calls"] == 5

    def test_breakdown_buckets(self):
        tel = Telemetry()
        with tel.span("engine.compute"):
            pass
        with tel.span("engine.exchange"):
            pass
        tel.add({"fft.seconds": 0.25, "queue.wait.seconds": 0.5})
        breakdown = tel.summary()["breakdown"]
        assert tuple(breakdown) == BREAKDOWN_KEYS
        assert breakdown["fft"] == 0.25
        assert breakdown["queue"] == 0.5
        assert breakdown["gradient"] > 0.0
        assert breakdown["halo"] > 0.0
        assert breakdown["collective"] == 0.0


class TestDrainIngest:
    def test_round_trip_merges_everything(self):
        worker = Telemetry()
        with worker.span("engine.compute", rank=2):
            pass
        worker.add({"fft.calls": 7.0})
        payload = worker.drain()
        # drain resets the worker for its next step report
        assert worker.events_snapshot() == []
        assert worker.counters_snapshot() == {}

        parent = Telemetry()
        with parent.span("run.iteration"):
            pass
        parent.ingest(payload)
        summary = parent.summary()
        assert summary["phases"]["engine.compute"]["calls"] == 1
        assert summary["ranks"]["2"]["engine.compute"] >= 0.0
        assert summary["counters"]["fft.calls"] == 7.0
        assert summary["events_recorded"] == 2

    def test_ingest_preserves_per_rank_event_order(self):
        worker = Telemetry()
        for _ in range(4):
            with worker.span("step", rank=3):
                pass
        parent = Telemetry()
        parent.ingest(worker.drain())
        starts = [t0 for _, rank, t0, _, _ in parent.events_snapshot()
                  if rank == 3]
        assert starts == sorted(starts)

    def test_ingest_respects_max_events_and_counts_overflow(self):
        worker = Telemetry()
        for _ in range(5):
            with worker.span("x"):
                pass
        parent = Telemetry(max_events=3)
        parent.ingest(worker.drain())
        summary = parent.summary()
        assert summary["events_recorded"] == 3
        assert summary["events_dropped"] == 2

    def test_ingest_empty_payload_is_noop(self):
        parent = Telemetry()
        parent.ingest({})
        assert parent.summary()["events_recorded"] == 0


class TestActivation:
    def test_default_is_shared_null_recorder(self):
        assert current() is NULL_TELEMETRY
        assert not current().enabled

    def test_activate_installs_and_restores(self):
        tel = Telemetry()
        with activate(tel) as active:
            assert active is tel
            assert current() is tel
        assert current() is NULL_TELEMETRY

    def test_activation_nests(self):
        outer, inner = Telemetry(), Telemetry()
        with activate(outer):
            with activate(inner):
                assert current() is inner
            assert current() is outer

    def test_activation_is_thread_local(self):
        tel = Telemetry()
        seen = {}

        def probe():
            seen["other"] = current()

        with activate(tel):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen["other"] is NULL_TELEMETRY

    def test_fresh_thread_reads_class_default_and_nesting_restores(self):
        """A thread that never activated a recorder has no per-thread
        entry: it reads the null recorder as the class-level default,
        and nested activations on it restore each previous recorder."""
        outer, inner = Telemetry(), Telemetry()
        seen = []

        def run():
            seen.append("telemetry" in vars(obs._tls))
            seen.append(current())
            with activate(outer):
                with activate(inner):
                    seen.append(current())
                seen.append(current())
            seen.append(current())

        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
        assert seen == [False, NULL_TELEMETRY, inner, outer, NULL_TELEMETRY]


class TestEnablement:
    def test_explicit_beats_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_TRACE, "1")
        assert resolve_telemetry(False) is False
        monkeypatch.delenv(ENV_TRACE)
        assert resolve_telemetry(True) is True

    @pytest.mark.parametrize("value", ["", "0", "false", "no", "off", "OFF"])
    def test_falsy_env_values_stay_off(self, monkeypatch, value):
        monkeypatch.setenv(ENV_TRACE, value)
        assert default_telemetry_enabled() is False
        assert resolve_telemetry(None) is False

    @pytest.mark.parametrize("value", ["1", "true", "yes", "trace.json"])
    def test_truthy_env_values_enable(self, monkeypatch, value):
        monkeypatch.setenv(ENV_TRACE, value)
        assert resolve_telemetry(None) is True

    def test_unset_env_defaults_off(self, monkeypatch):
        monkeypatch.delenv(ENV_TRACE, raising=False)
        assert resolve_telemetry(None) is False


class TestNullPath:
    def test_null_methods_are_noops(self):
        null = NullTelemetry()
        with null.span("x", rank=1, foo="bar"):
            pass
        null.count("a")
        null.add({"a": 1.0})
        assert null.phase_label() is None
        assert null.summary() is None

    def test_disabled_guard_budget(self):
        """The per-site cost of the disabled path: one thread-local read
        plus one attribute test.  Pinned at a deliberately generous
        2 microseconds per call (measured ~0.1 us) so the test only
        fires if someone accidentally puts allocation, locking or
        formatting in front of the guard."""
        n = 50_000
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(n):
                tel = obs.current()
                if not tel.enabled:
                    pass
            best = min(best, time.perf_counter() - t0)
        assert best / n < 2e-6, f"disabled guard costs {best / n * 1e9:.0f}ns"
