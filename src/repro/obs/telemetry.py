"""Zero-dependency telemetry core: spans, counters, one recorder per run.

The paper's headline results are *phase-timing* claims — gradient
compute vs. halo exchange vs. synchronization (Fig. 8's Summit
breakdown) — so the reproduction needs the same decomposition of its
own wall time before any runtime optimisation can be argued from data
(ROADMAP north star: performance measured layer by layer).  This
module provides the recording half:

* :class:`Telemetry` — a per-run recorder of hierarchical **spans**
  (named intervals, optionally attributed to a logical rank) and
  monotonic **counters** (``fft.calls``, ``store.read.frames``, ...).
  Spans aggregate on close into per-``(name, rank)`` call/second
  totals, and the raw events are kept (bounded) for Chrome trace
  export.
* :class:`NullTelemetry` — the shared disabled recorder.  Every
  instrumented hot path guards on ``current().enabled`` first, so a
  disabled run pays one thread-local read and one attribute test per
  site — no allocation, no lock, no string formatting.  Tier-1 pins
  both that budget and the bit-identity of disabled runs.
* :func:`current` / :func:`activate` — thread-local recorder
  resolution.  A run activates its recorder around the solver call;
  engine, stores and FFT helpers pick it up ambiently, which keeps
  their signatures telemetry-free.  Thread-locality (not a process
  global) is what lets concurrent service workers trace different
  jobs independently.
* :func:`resolve_telemetry` — the enablement rule, following the
  repo-wide precedence: explicit config value beats the
  ``REPRO_TRACE`` environment variable beats the built-in default
  (off).

Worker processes each run their own recorder and ship
:meth:`Telemetry.drain` payloads back in the per-step report dict (the
ProcessComm event-accounting seam); the parent merges them with
:meth:`Telemetry.ingest`.  ``time.perf_counter`` is CLOCK_MONOTONIC
within one machine, so merged timelines stay ordered per rank — the
invariant ``tests/obs`` asserts.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "ENV_TRACE",
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "current",
    "activate",
    "resolve_telemetry",
    "default_telemetry_enabled",
    "BREAKDOWN_KEYS",
]

#: Ambient telemetry switch (any value not in ``_FALSY`` enables it).
ENV_TRACE = "REPRO_TRACE"

_FALSY = frozenset({"", "0", "false", "no", "off"})

#: Keys every phase-breakdown summary carries (seconds each) — the
#: vocabulary of the paper's timing decomposition plus this repo's
#: service/data layers.
BREAKDOWN_KEYS = (
    "fft",
    "gradient",
    "halo",
    "collective",
    "store",
    "queue",
    "checkpoint",
)

#: Span-name prefixes/names feeding each breakdown bucket.
_PHASE_BUCKETS = {
    "engine.compute": "gradient",
    "engine.local_solve": "gradient",
    "engine.exchange": "halo",
    "engine.paste": "halo",
    "engine.allreduce": "collective",
    "engine.barrier": "collective",
    "engine.probe_sync": "collective",
    "checkpoint.save": "checkpoint",
}

#: Counter names feeding each breakdown bucket.
_COUNTER_BUCKETS = {
    "fft.seconds": "fft",
    "store.read.seconds": "store",
    "queue.wait.seconds": "queue",
}


def default_telemetry_enabled() -> bool:
    """Whether ``REPRO_TRACE`` turns telemetry on ambiently."""
    return os.environ.get(ENV_TRACE, "").strip().lower() not in _FALSY


def resolve_telemetry(spec: Optional[bool]) -> bool:
    """Explicit config value beats ``REPRO_TRACE`` beats off — the same
    precedence backends, dtypes and executors already follow."""
    if spec is not None:
        return bool(spec)
    return default_telemetry_enabled()


# ----------------------------------------------------------------------
# Disabled path
# ----------------------------------------------------------------------
class _NullSpan:
    """Allocation-free context manager for disabled spans."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The disabled recorder: every method is a no-op.

    Instrumentation sites guard on :attr:`enabled` before doing any
    argument work, so this class exists mostly so un-guarded calls
    (cold paths) stay safe without ``None`` checks.
    """

    enabled = False

    def span(self, name: str, rank: Optional[int] = None, **args: Any):
        return _NULL_SPAN

    def count(self, name: str, value: float = 1.0) -> None:
        return

    def add(self, counters: Dict[str, float]) -> None:
        return

    def phase_label(self) -> Optional[str]:
        return None

    def summary(self) -> Optional[Dict[str, Any]]:
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullTelemetry()"


NULL_TELEMETRY = NullTelemetry()

class _Ambient(threading.local):
    """Per-thread ambient recorder.  The class-level default is what a
    thread that never activated one reads, so :func:`current` is a
    plain attribute read (no ``getattr`` default swallowing an
    ``AttributeError`` on every transform)."""

    telemetry: Any = NULL_TELEMETRY


_tls = _Ambient()


def current() -> "Telemetry":
    """The recorder active on this thread (the shared null recorder
    when none has been activated)."""
    return _tls.telemetry


class activate:
    """Context manager installing ``telemetry`` as this thread's
    ambient recorder for the duration of a ``with`` block.

    Nests: the previous recorder is restored on exit, so a CLI-owned
    recorder wrapping :func:`repro.reconstruct` and a config-enabled
    recorder inside it never fight.
    """

    def __init__(self, telemetry: "Telemetry") -> None:
        self.telemetry = telemetry
        self._previous: Any = None

    def __enter__(self) -> "Telemetry":
        self._previous = _tls.telemetry
        _tls.telemetry = self.telemetry
        return self.telemetry

    def __exit__(self, *exc_info) -> bool:
        _tls.telemetry = self._previous
        return False


# ----------------------------------------------------------------------
# Enabled recorder
# ----------------------------------------------------------------------
class _Span:
    """Context manager recording one interval on exit."""

    __slots__ = ("_telemetry", "name", "rank", "args", "_t0")

    def __init__(self, telemetry, name, rank, args):
        self._telemetry = telemetry
        self.name = name
        self.rank = rank
        self.args = args

    def __enter__(self) -> "_Span":
        self._telemetry._last_phase = self.name
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self._telemetry._record(
            self.name, self.rank, self._t0, time.perf_counter(), self.args
        )
        return False


class Telemetry:
    """One run's telemetry recorder (see module docstring).

    Parameters
    ----------
    max_events:
        Bound on retained raw span events (aggregates are unbounded but
        tiny).  Overflowing events are *counted*, not silently lost:
        the summary reports ``events_dropped`` so a truncated trace is
        visible as such.
    """

    enabled = True

    def __init__(self, max_events: int = 200_000) -> None:
        if max_events <= 0:
            raise ValueError("max_events must be positive")
        self.max_events = int(max_events)
        #: perf_counter at creation — the trace's time origin.
        self.epoch = time.perf_counter()
        self._lock = threading.Lock()
        #: Raw events: (name, rank, t0, t1, args-or-None).
        self._events: List[Tuple] = []
        self._dropped = 0
        #: (name, rank) -> [calls, seconds]
        self._agg: Dict[Tuple[str, Optional[int]], List[float]] = {}
        self._counters: Dict[str, float] = {}
        self._last_phase: Optional[str] = None

    # -- recording -----------------------------------------------------
    def span(self, name: str, rank: Optional[int] = None, **args: Any):
        """A context manager timing one named interval.

        ``rank`` attributes the interval to a logical rank's timeline
        (``None`` = the run-level timeline); ``args`` become Chrome
        trace-event args.
        """
        return _Span(self, name, rank, args or None)

    def _record(self, name, rank, t0, t1, args) -> None:
        with self._lock:
            if len(self._events) < self.max_events:
                self._events.append((name, rank, t0, t1, args))
            else:
                self._dropped += 1
            slot = self._agg.get((name, rank))
            if slot is None:
                self._agg[(name, rank)] = [1, t1 - t0]
            else:
                slot[0] += 1
                slot[1] += t1 - t0

    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the monotonic counter ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def add(self, counters: Dict[str, float]) -> None:
        """Add several counters under one lock acquisition."""
        with self._lock:
            mine = self._counters
            for name, value in counters.items():
                mine[name] = mine.get(name, 0.0) + value

    def phase_label(self) -> Optional[str]:
        """Name of the most recently opened span — a cheap 'what is
        this run doing right now' label for progress mirrors."""
        return self._last_phase

    # -- cross-process merge -------------------------------------------
    def drain(self) -> Dict[str, Any]:
        """Detach and return everything recorded so far (worker side of
        the report-dict piggyback); the recorder restarts empty."""
        with self._lock:
            payload = {
                "epoch": self.epoch,
                "events": self._events,
                "agg": {
                    f"{name}\x00{'' if rank is None else rank}": list(slot)
                    for (name, rank), slot in self._agg.items()
                },
                "counters": dict(self._counters),
                "dropped": self._dropped,
            }
            self._events = []
            self._agg = {}
            self._counters = {}
            self._dropped = 0
            return payload

    def ingest(self, payload: Dict[str, Any]) -> None:
        """Merge a :meth:`drain` payload from a worker recorder.

        Events keep their original ``perf_counter`` timestamps —
        CLOCK_MONOTONIC is machine-wide, and each worker records its
        spans sequentially, so per-rank order survives the merge.
        """
        if not payload:
            return
        with self._lock:
            room = self.max_events - len(self._events)
            events = payload.get("events", ())
            if room >= len(events):
                self._events.extend(events)
            else:
                self._events.extend(events[:room])
                self._dropped += len(events) - room
            self._dropped += payload.get("dropped", 0)
            for key, (calls, seconds) in payload.get("agg", {}).items():
                name, _, rank_s = key.partition("\x00")
                rank = int(rank_s) if rank_s else None
                slot = self._agg.get((name, rank))
                if slot is None:
                    self._agg[(name, rank)] = [calls, seconds]
                else:
                    slot[0] += calls
                    slot[1] += seconds
            mine = self._counters
            for name, value in payload.get("counters", {}).items():
                mine[name] = mine.get(name, 0.0) + value

    # -- read-out ------------------------------------------------------
    def counters_snapshot(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._counters)

    def events_snapshot(self) -> List[Tuple]:
        """Raw (name, rank, t0, t1, args) events recorded so far."""
        with self._lock:
            return list(self._events)

    def summary(self) -> Dict[str, Any]:
        """Aggregated stats: per-phase calls/seconds, per-rank seconds,
        counters, and the fft/gradient/halo/collective/store/queue
        breakdown the benchmarks and ``repro stats`` surface."""
        with self._lock:
            agg = {key: list(slot) for key, slot in self._agg.items()}
            counters = dict(self._counters)
            dropped = self._dropped
            n_events = len(self._events)
        phases: Dict[str, Dict[str, float]] = {}
        ranks: Dict[str, Dict[str, float]] = {}
        for (name, rank), (calls, seconds) in sorted(agg.items(),
                                                     key=lambda kv: kv[0][0]):
            slot = phases.setdefault(name, {"calls": 0, "seconds": 0.0})
            slot["calls"] += int(calls)
            slot["seconds"] += seconds
            if rank is not None:
                by_phase = ranks.setdefault(str(rank), {})
                by_phase[name] = by_phase.get(name, 0.0) + seconds
        breakdown = {key: 0.0 for key in BREAKDOWN_KEYS}
        for name, slot in phases.items():
            bucket = _PHASE_BUCKETS.get(name)
            if bucket is not None:
                breakdown[bucket] += slot["seconds"]
        for name, bucket in _COUNTER_BUCKETS.items():
            if name in counters:
                breakdown[bucket] += counters[name]
        return {
            "schema": "repro-telemetry/1",
            "phases": phases,
            "ranks": ranks,
            "counters": counters,
            "breakdown": breakdown,
            "events_recorded": n_events,
            "events_dropped": dropped,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"Telemetry(events={len(self._events)}, "
                f"counters={len(self._counters)})"
            )
