"""Dynamic acquisition: measurement stores that grow while a run runs.

Every store in :mod:`repro.data.store` is *static* — the full
diffraction set exists before iteration 0.  The paper's target scenario
is the opposite: a beamline where acquisition outpaces reconstruction,
so frames arrive *while* the solver sweeps.  This module supplies the
dynamic half of the data layer:

* :class:`StreamingStore` — an appendable :class:`~repro.data.store.
  DiffractionStore` with a thread-safe frame journal.  Readers either
  proceed on the currently-covered position subset (``coverage()``/
  ``poll()``) or block with a timeout (``wait_for``) until enough
  frames exist — the WAIT side of the WAIT/END_OF_SCAN semantics.
  ``mark_end_of_scan()`` is the END_OF_SCAN side: once set, waiters
  settle immediately even when fewer frames than advertised arrived.
* :class:`WaveSchedule` — the acquisition itself: which frames of the
  dataset's own measurement stack arrive in which :class:`ScanWave`.
  :func:`build_scan_source` resolves the config's two spec kinds to
  one: ``replay`` (``K`` contiguous sweep-keyed waves, how an archived
  acquisition is fed back through the streaming path) and
  ``simulated`` (scripted waves, stalls, out-of-order positions and an
  explicit end-of-scan marker, for tests and smoke runs).
* :class:`StreamFeeder` — delivers a schedule's waves into a
  :class:`StreamingStore`, either synchronously keyed on solver sweeps
  (``feed_until``) or from a background thread on a timed schedule.
* :class:`StreamPolicy` — the run-level knobs (wait timeout, minimum
  start coverage, sweeps per coverage snapshot, deterministic
  re-weighting, restart-on-growth).

Everything here is deterministic by construction: a given schedule
always delivers the same frames in the same journal order, which is
what lets the parity suite pin streamed runs against static replays.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, fields
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.data.store import DiffractionStore

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.physics.dataset import PtychoDataset

__all__ = [
    "StreamError",
    "StreamTimeout",
    "StreamStatus",
    "StreamingStore",
    "ScanWave",
    "WaveSchedule",
    "StreamFeeder",
    "StreamPolicy",
    "build_scan_source",
]


class StreamError(RuntimeError):
    """A streaming-acquisition contract violation (duplicate frame,
    read of a frame that has not arrived, malformed schedule, ...)."""


class StreamTimeout(StreamError):
    """``wait_for`` exceeded its timeout before enough frames arrived
    and the scan had not ended — the clean surface of a stalled source."""


@dataclass(frozen=True)
class StreamStatus:
    """Snapshot of a stream: how much arrived, how much was promised."""

    arrived: int
    advertised: int
    end_of_scan: bool

    @property
    def complete(self) -> bool:
        """No more frames can change the run: full coverage or EOS."""
        return self.end_of_scan or self.arrived >= self.advertised


# ----------------------------------------------------------------------
# Appendable store
# ----------------------------------------------------------------------
class StreamingStore(DiffractionStore):
    """An appendable measurement store with WAIT/END_OF_SCAN semantics.

    The geometry (``n_probes`` *advertised*, ``detector_px``, storage
    dtype) is declared up front — that is what the acquisition promises
    — while frames arrive later via :meth:`append`.  A journal records
    the exact arrival order (``(seq, index)`` implicitly: position in
    :meth:`journal` is the sequence number), which the property suite
    uses to prove no frame is dropped, duplicated, or reordered.

    All mutation and inspection happens under one condition variable, so
    a background feeder thread and the solver thread can share an
    instance.  Reading a frame that has not arrived is a
    :class:`StreamError` — the engine only ever asks for covered
    positions, so such a read is a scheduling bug, not a wait.

    Instances pickle (the lock is rebuilt), so a store rides an
    ``EnginePlan`` into spawned workers; each worker then sees the
    frames that had arrived at pickling time — exactly the coverage
    snapshot its epoch was planned against.
    """

    def __init__(
        self, n_probes: int, detector_px: int, dtype: Union[str, np.dtype]
    ) -> None:
        if n_probes <= 0:
            raise ValueError("n_probes must be positive")
        if detector_px <= 0:
            raise ValueError("detector_px must be positive")
        self._n_probes = int(n_probes)
        self._detector_px = int(detector_px)
        self._dtype = np.dtype(dtype)
        self._frames: Dict[int, np.ndarray] = {}
        self._journal: List[int] = []
        self._eos = False
        self._cond = threading.Condition()

    # -- DiffractionStore protocol -------------------------------------
    @property
    def n_probes(self) -> int:
        """*Advertised* probe count — what the scan promised, which may
        exceed what ever arrives when the scan ends early."""
        return self._n_probes

    @property
    def detector_px(self) -> int:
        return self._detector_px

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    def read(self, index: int) -> np.ndarray:
        with self._cond:
            frame = self._frames.get(index)
        if frame is None:
            if not (0 <= index < self._n_probes):
                raise IndexError(
                    f"probe index {index} out of range [0, {self._n_probes})"
                )
            raise StreamError(
                f"frame {index} has not arrived yet "
                f"(coverage {len(self._frames)}/{self._n_probes}); "
                "plan sweeps over coverage(), or wait_for() more frames"
            )
        return frame

    # -- acquisition side ----------------------------------------------
    def append(self, index: int, frame: np.ndarray) -> None:
        """Deliver one frame.  Duplicate delivery, delivery after
        end-of-scan, and geometry mismatches are contract errors."""
        arr = np.asarray(frame, dtype=self._dtype)
        if arr.shape != (self._detector_px, self._detector_px):
            raise StreamError(
                f"frame {index} is {arr.shape}, expected "
                f"({self._detector_px}, {self._detector_px})"
            )
        if not (0 <= index < self._n_probes):
            raise StreamError(
                f"frame index {index} out of advertised range "
                f"[0, {self._n_probes})"
            )
        with self._cond:
            if self._eos:
                raise StreamError(
                    f"frame {index} arrived after end-of-scan"
                )
            if index in self._frames:
                raise StreamError(f"frame {index} delivered twice")
            self._frames[index] = arr
            self._journal.append(index)
            self._cond.notify_all()

    def mark_end_of_scan(self) -> None:
        """Declare that no further frames will arrive.  Idempotent.
        Waiters wake immediately and settle on the covered subset."""
        with self._cond:
            self._eos = True
            self._cond.notify_all()

    # -- reader side ---------------------------------------------------
    def coverage(self) -> Tuple[int, ...]:
        """The sorted tuple of positions whose frames have arrived."""
        with self._cond:
            return tuple(sorted(self._frames))

    def journal(self) -> Tuple[int, ...]:
        """Frame indices in exact arrival order (the audit trail)."""
        with self._cond:
            return tuple(self._journal)

    def poll(self) -> StreamStatus:
        """Non-blocking status snapshot."""
        with self._cond:
            return StreamStatus(
                arrived=len(self._frames),
                advertised=self._n_probes,
                end_of_scan=self._eos,
            )

    def wait_for(
        self, n: int, timeout: Optional[float] = None
    ) -> StreamStatus:
        """Block until at least ``n`` frames arrived *or* end-of-scan.

        Returns the status that satisfied the wait — callers must check
        ``status.arrived`` because EOS legitimately releases the wait
        with fewer frames than asked for.  Raises :class:`StreamTimeout`
        when ``timeout`` (seconds, monotonic) elapses first.
        """
        deadline = (
            None if timeout is None else time.monotonic() + float(timeout)
        )
        with self._cond:
            while len(self._frames) < n and not self._eos:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise StreamTimeout(
                        f"waited {timeout:g}s for {n} frames but only "
                        f"{len(self._frames)} arrived and the scan has "
                        "not ended — the source appears stalled"
                    )
                self._cond.wait(remaining)
            return StreamStatus(
                arrived=len(self._frames),
                advertised=self._n_probes,
                end_of_scan=self._eos,
            )

    # -- lifecycle / pickling ------------------------------------------
    def __getstate__(self):
        with self._cond:
            state = self.__dict__.copy()
            state["_frames"] = dict(self._frames)
            state["_journal"] = list(self._journal)
        del state["_cond"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._cond = threading.Condition()

    def worker_copy(self) -> "StreamingStore":
        # Forked workers share the instance read-only (their epoch only
        # reads already-covered positions); spawned workers got a
        # coverage snapshot through the pickle path above.
        return self


# ----------------------------------------------------------------------
# Wave schedules
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScanWave:
    """One delivery burst of a scan schedule.

    ``frames`` arrive in the given order (out-of-order positions are the
    point).  A wave is gated either on solver progress (``after_sweep``:
    delivered once that many sweeps completed — the synchronous,
    perfectly reproducible mode) or on time (``delay_s`` seconds after
    the previous wave — the background-feeder mode).  ``end_of_scan``
    marks the scan over after this wave, even if fewer frames than
    advertised were delivered.
    """

    frames: Tuple[int, ...]
    after_sweep: Optional[int] = None
    delay_s: float = 0.0
    end_of_scan: bool = False


class WaveSchedule:
    """A deterministic acquisition: the waves in which the frames of a
    measurement stack arrive.

    ``waves`` script exactly when each frame becomes visible; stalls are
    spelled as large ``delay_s`` gaps, out-of-order positions as frame
    lists in non-raster order, and an early scan end as a wave with
    ``end_of_scan=True`` before full coverage.  A schedule is either
    sweep-keyed or timed (:attr:`mode`), never both.
    """

    def __init__(
        self, amplitudes: np.ndarray, waves: Sequence[ScanWave]
    ) -> None:
        amplitudes = np.asarray(amplitudes)
        if amplitudes.ndim != 3 or amplitudes.shape[1] != amplitudes.shape[2]:
            raise ValueError(
                f"amplitudes must be (N, det, det), got {amplitudes.shape}"
            )
        self.amplitudes = amplitudes
        self.waves = tuple(waves)
        seen: set = set()
        for w, wave in enumerate(self.waves):
            if not wave.frames and not wave.end_of_scan:
                raise StreamError(f"wave {w} delivers no frames")
            for idx in wave.frames:
                if not (0 <= idx < len(amplitudes)):
                    raise StreamError(
                        f"wave {w} frame {idx} out of range "
                        f"[0, {len(amplitudes)})"
                    )
                if idx in seen:
                    raise StreamError(
                        f"frame {idx} scheduled twice (wave {w})"
                    )
                seen.add(idx)
            if wave.delay_s < 0:
                raise StreamError(f"wave {w} has negative delay_s")
            if wave.after_sweep is not None and wave.after_sweep < 0:
                raise StreamError(f"wave {w} has negative after_sweep")
        timed = any(w.delay_s > 0 for w in self.waves)
        if timed and any(w.after_sweep is not None for w in self.waves):
            raise StreamError(
                "scan schedule mixes after_sweep and delay_s gating; "
                "a schedule is either sweep-keyed or timed, not both"
            )
        #: ``"sweep"`` (progress-gated) or ``"timed"`` (delay-gated).
        self.mode = "timed" if timed else "sweep"

    @classmethod
    def replay(cls, amplitudes: np.ndarray, n_waves: int) -> "WaveSchedule":
        """The stack in ``n_waves`` contiguous waves keyed
        ``after_sweep = 0, 1, ...`` — the canonical "K-wave" schedule the
        parity suite compares against static runs restarted at the same
        coverage points."""
        if n_waves <= 0:
            raise ValueError("n_waves must be positive")
        n = len(amplitudes)
        n_waves = min(int(n_waves), n)
        bounds = np.linspace(0, n, n_waves + 1).astype(int)
        return cls(amplitudes, [
            ScanWave(
                frames=tuple(range(int(bounds[w]), int(bounds[w + 1]))),
                after_sweep=w,
                end_of_scan=(w == n_waves - 1),
            )
            for w in range(n_waves)
        ])


# ----------------------------------------------------------------------
# Feeder
# ----------------------------------------------------------------------
class StreamFeeder:
    """Delivers a :class:`WaveSchedule`'s waves into a
    :class:`StreamingStore`.

    Sweep-keyed schedules are pumped synchronously from the solver
    thread (:meth:`feed_until` between coverage snapshots — perfectly
    reproducible, no real time involved).  Timed schedules run on a
    background thread (:meth:`start`/:meth:`stop`) that sleeps each
    wave's ``delay_s`` and then appends its frames.

    When every advertised frame has been delivered, end-of-scan is
    marked implicitly; an explicit ``end_of_scan`` wave marks it early.
    """

    def __init__(self, schedule: WaveSchedule, store: StreamingStore) -> None:
        self.schedule = schedule
        self.store = store
        self.mode = schedule.mode
        self._next_wave = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _deliver(self, wave: ScanWave) -> int:
        for idx in wave.frames:
            self.store.append(idx, self.schedule.amplitudes[idx])
        status = self.store.poll()
        if wave.end_of_scan or status.arrived >= status.advertised:
            self.store.mark_end_of_scan()
        return len(wave.frames)

    # -- sweep-keyed (synchronous) mode --------------------------------
    def feed_until(self, sweeps_done: int) -> int:
        """Deliver every pending wave gated at or before ``sweeps_done``
        completed sweeps.  Returns the number of frames delivered."""
        delivered = 0
        waves = self.schedule.waves
        while self._next_wave < len(waves):
            wave = waves[self._next_wave]
            gate = wave.after_sweep if wave.after_sweep is not None else 0
            if gate > sweeps_done:
                break
            delivered += self._deliver(wave)
            self._next_wave += 1
        return delivered

    def exhausted(self) -> bool:
        """Whether every scheduled wave has been delivered."""
        return self._next_wave >= len(self.schedule.waves)

    # -- timed (background) mode ---------------------------------------
    def start(self) -> None:
        """Run a timed schedule on a background thread."""
        self._thread = threading.Thread(
            target=self._run_timed, name="stream-feeder", daemon=True
        )
        self._thread.start()

    def _run_timed(self) -> None:
        waves = self.schedule.waves
        while self._next_wave < len(waves):
            wave = waves[self._next_wave]
            if wave.delay_s > 0 and self._stop.wait(wave.delay_s):
                return
            if self._stop.is_set():
                return
            self._deliver(wave)
            self._next_wave += 1

    def stop(self) -> None:
        """Stop a timed feeder and join its thread.  Idempotent."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None


# ----------------------------------------------------------------------
# Policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StreamPolicy:
    """Run-level streaming knobs (the ``stream_policy`` config field).

    Attributes
    ----------
    wait_timeout_s:
        How long the driver waits for new frames when coverage is
        incomplete and nothing arrived during the last epoch, before
        surfacing :class:`StreamTimeout`.
    min_start_frames:
        Frames that must exist before iteration 0 runs.
    sweeps_per_epoch:
        Sweeps executed per coverage snapshot while the stream is
        still growing (once coverage is complete or the scan ended, the
        remaining iterations run in one final epoch).
    reweight:
        Deterministically scale the learning rate by
        ``advertised / covered`` while coverage is partial, so early
        sparse sweeps take proportionally larger steps.  Requires an
        explicit ``lr`` in ``solver_params``.
    on_growth:
        ``"continue"`` keeps the warm start when coverage grows;
        ``"restart"`` discards the volume and starts the epoch from
        vacuum whenever new positions appeared.
    """

    wait_timeout_s: float = 30.0
    min_start_frames: int = 1
    sweeps_per_epoch: int = 1
    reweight: bool = False
    on_growth: str = "continue"

    def __post_init__(self) -> None:
        if self.wait_timeout_s <= 0:
            raise ValueError("wait_timeout_s must be positive")
        if self.min_start_frames <= 0:
            raise ValueError("min_start_frames must be positive")
        if self.sweeps_per_epoch <= 0:
            raise ValueError("sweeps_per_epoch must be positive")
        if self.on_growth not in ("continue", "restart"):
            raise ValueError(
                f"on_growth must be 'continue' or 'restart', "
                f"got {self.on_growth!r}"
            )

    @classmethod
    def from_mapping(
        cls, payload: Optional[Mapping[str, Any]]
    ) -> "StreamPolicy":
        """Build from a config's ``stream_policy`` JSON mapping."""
        if payload is None:
            return cls()
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown stream_policy keys {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(**dict(payload))


# ----------------------------------------------------------------------
# Spec resolution (the ``scan_source`` config field)
# ----------------------------------------------------------------------
def build_scan_source(
    spec: Mapping[str, Any], dataset: "PtychoDataset"
) -> WaveSchedule:
    """Resolve a config's ``scan_source`` JSON mapping to the schedule
    over ``dataset``'s own measurements.

    Two kinds::

        {"kind": "replay", "waves": 4}
            Replay the dataset's measurements in 4 contiguous
            sweep-keyed waves (the default streaming schedule).

        {"kind": "simulated",
         "waves": [{"frames": [3, 1, 2], "after_sweep": 0},
                   {"count": 5, "delay_s": 0.2},
                   {"frames": [], "end_of_scan": true}],
         "advertised": 9}
            A scripted schedule over the dataset's measurements.  Each
            wave names explicit ``frames`` (enabling out-of-order
            delivery) or a ``count`` of the next unscheduled positions
            in raster order; gates are ``after_sweep`` (sweep-keyed) or
            ``delay_s`` (timed) — never both kinds in one schedule.
            ``advertised`` (optional) must be the dataset's probe count:
            any other is a :class:`StreamError` naming the mismatch.
    """
    if not isinstance(spec, Mapping):
        raise TypeError(
            f"scan_source must be a mapping, got {type(spec).__name__}"
        )
    kind = spec.get("kind", "replay")
    if kind == "replay":
        unknown = set(spec) - {"kind", "waves"}
        if unknown:
            raise ValueError(
                f"unknown replay scan_source keys {sorted(unknown)}"
            )
        n_waves = spec.get("waves", 4)
        if not isinstance(n_waves, int) or isinstance(n_waves, bool):
            raise TypeError("replay scan_source 'waves' must be an int")
        return WaveSchedule.replay(dataset.amplitudes, n_waves)
    if kind == "simulated":
        unknown = set(spec) - {"kind", "waves", "advertised"}
        if unknown:
            raise ValueError(
                f"unknown simulated scan_source keys {sorted(unknown)}"
            )
        wave_specs = spec.get("waves")
        if not isinstance(wave_specs, Sequence) or isinstance(
            wave_specs, (str, bytes)
        ):
            raise TypeError(
                "simulated scan_source needs a 'waves' list"
            )
        advertised = spec.get("advertised", dataset.n_probes)
        if not 0 < advertised <= dataset.n_probes:
            raise ValueError(
                f"advertised must be in [1, {dataset.n_probes}], "
                f"got {advertised}"
            )
        if advertised != dataset.n_probes:
            raise StreamError(
                f"scan source advertises {advertised} x "
                f"{dataset.spec.detector_px}px frames but the dataset "
                f"expects {dataset.n_probes} x "
                f"{dataset.spec.detector_px}px"
            )
        waves: List[ScanWave] = []
        scheduled: set = set()
        cursor = 0
        for w, wave_spec in enumerate(wave_specs):
            if not isinstance(wave_spec, Mapping):
                raise TypeError(f"wave {w} must be a mapping")
            unknown = set(wave_spec) - {
                "frames",
                "count",
                "after_sweep",
                "delay_s",
                "end_of_scan",
            }
            if unknown:
                raise ValueError(
                    f"unknown wave {w} keys {sorted(unknown)}"
                )
            if "frames" in wave_spec and "count" in wave_spec:
                raise ValueError(
                    f"wave {w} spells both 'frames' and 'count'"
                )
            if "frames" in wave_spec:
                frames = tuple(int(i) for i in wave_spec["frames"])
            elif "count" in wave_spec:
                count = int(wave_spec["count"])
                frames = []
                while len(frames) < count and cursor < advertised:
                    if cursor not in scheduled:
                        frames.append(cursor)
                    cursor += 1
                frames = tuple(frames)
            else:
                frames = ()
            scheduled.update(frames)
            after_sweep = wave_spec.get("after_sweep")
            waves.append(
                ScanWave(
                    frames=frames,
                    after_sweep=(
                        int(after_sweep) if after_sweep is not None else None
                    ),
                    delay_s=float(wave_spec.get("delay_s", 0.0)),
                    end_of_scan=bool(wave_spec.get("end_of_scan", False)),
                )
            )
        return WaveSchedule(dataset.amplitudes, waves)
    raise ValueError(
        f"unknown scan_source kind {kind!r}; choose 'replay' or 'simulated'"
    )
