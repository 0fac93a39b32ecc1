"""Live progress streams fed by :class:`~repro.core.observers.IterationEvent`.

A :class:`ProgressStream` is an ordinary observer (pass it in a
reconstruction's ``observers=[...]`` list); each event becomes one
:class:`ProgressUpdate` — global iteration count, cost, measured
iteration rate and ETA — that clients can **poll** (:meth:`ProgressStream.
poll` returns the latest update without blocking) or **subscribe** to
(:meth:`ProgressStream.subscribe` yields every update as it arrives,
the live-plot-client shape).  In the service, a job's leg process
mirrors each update to ``progress.json`` in the job directory, so a
*different process* (the ``jobs`` CLI) can watch a run it does not
host, and sends it to the service, which hands it to the job's stream
through :meth:`ProgressStream.publish`.

Updates count iterations **globally** because events do: a resumed
or streamed run emits run-global ``iteration`` and ``n_iterations``
(see :func:`~repro.core.reconstructor.relay_leg`), so a client
watching a cancel→resume job sees 1..N of N, not two runs of
leg-local counters, with no offset for the stream to add back.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Union

from repro.core.observers import IterationEvent
from repro.obs import telemetry as _obs
from repro.utils.atomicio import atomic_write_json

__all__ = ["ProgressUpdate", "ProgressStream", "read_progress"]


@dataclass(frozen=True)
class ProgressUpdate:
    """One iteration of a job, as seen by progress clients.

    ``iteration`` is 1-based and global across resumed legs, and
    ``total`` is the run's iteration count as the event reported it;
    ``iter_per_s``/``eta_s`` are measured over the current leg (the only
    wall-clock this process observed).  ``backend``/``dtype`` echo the
    pinned compute stack of the job's config and ``phase`` is the most
    recent telemetry span label (``None`` when tracing is off) — all
    three default to ``None`` so pre-observability ``progress.json``
    mirrors still parse.
    """

    job_id: str
    iteration: int
    total: int
    cost: float
    elapsed_s: float
    iter_per_s: float
    eta_s: float
    backend: Optional[str] = None
    dtype: Optional[str] = None
    phase: Optional[str] = None
    #: Streamed-acquisition coverage fraction in (0, 1] (``None`` for
    #: static runs — only events from the streaming driver carry it).
    coverage: Optional[float] = None

    @property
    def fraction(self) -> float:
        """Completed fraction of the run, in [0, 1]."""
        return self.iteration / self.total if self.total else 1.0


class ProgressStream:
    """Observer turning iteration events into pollable/subscribable
    progress updates (see module docstring).

    Parameters
    ----------
    job_id:
        Identifier stamped on every update.
    mirror_path:
        Optional JSON file updated atomically with the latest update,
        so other processes can poll the run.
    backend / dtype:
        Pinned compute stack stamped on every update (the service passes
        the job config's resolved names so ``jobs --watch`` can show
        *where* a run is computing without opening the archive).
    """

    def __init__(
        self,
        job_id: str,
        mirror_path: Optional[Union[str, Path]] = None,
        backend: Optional[str] = None,
        dtype: Optional[str] = None,
    ) -> None:
        self.job_id = job_id
        self.mirror_path = Path(mirror_path) if mirror_path else None
        self.backend = backend
        self.dtype = dtype
        self._updates: List[ProgressUpdate] = []
        self._cond = threading.Condition()
        self._closed = False
        self._seen = 0  # events seen: what per-call elapsed_s times

    # -- observer side -------------------------------------------------
    def __call__(self, event: IterationEvent) -> None:
        self._seen += 1
        rate = self._seen / event.elapsed_s if event.elapsed_s > 0 else 0.0
        done = event.iteration + 1
        remaining = max(event.n_iterations - done, 0)
        tel = _obs.current()
        self.publish(ProgressUpdate(
            job_id=self.job_id,
            iteration=done,
            total=event.n_iterations,
            cost=float(event.cost),
            elapsed_s=float(event.elapsed_s),
            iter_per_s=rate,
            eta_s=remaining / rate if rate > 0 else float("inf"),
            backend=self.backend,
            dtype=self.dtype,
            phase=tel.phase_label() if tel.enabled else None,
            coverage=event.coverage,
        ))

    def publish(self, update: ProgressUpdate) -> None:
        """Record ``update`` (built here from an event, or received from
        the process that ran the iteration), wake the subscribers and
        refresh the mirror."""
        with self._cond:
            self._updates.append(update)
            self._cond.notify_all()
        if self.mirror_path is not None:
            _write_json_atomic(self.mirror_path, _update_payload(update))

    def close(self) -> None:
        """End the stream: subscribers drain what is buffered and stop."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # -- client side ---------------------------------------------------
    def poll(self) -> Optional[ProgressUpdate]:
        """The latest update, or ``None`` before the first iteration."""
        with self._cond:
            return self._updates[-1] if self._updates else None

    def history(self) -> List[ProgressUpdate]:
        """Every update so far (a copy)."""
        with self._cond:
            return list(self._updates)

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def subscribe(
        self, timeout: Optional[float] = None
    ) -> Iterator[ProgressUpdate]:
        """Yield every update in order as it arrives.

        The generator ends when the stream is closed and drained; with
        ``timeout`` it also ends after that many seconds without a new
        update (so a stalled run cannot hang a client forever).
        """
        cursor = 0
        while True:
            with self._cond:
                while cursor >= len(self._updates):
                    if self._closed:
                        return
                    if not self._cond.wait(timeout=timeout):
                        return
                update = self._updates[cursor]
            cursor += 1
            yield update


def _update_payload(update: ProgressUpdate) -> dict:
    payload = asdict(update)
    # JSON has no Infinity; spell an unknown ETA as null.
    if payload["eta_s"] == float("inf"):
        payload["eta_s"] = None
    return payload


def _write_json_atomic(path: Path, payload: dict) -> None:
    """Write ``payload`` via tmp+rename so concurrent readers never see
    a torn file (the CLI polls these from another process)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_json(path, payload, indent=2)


def read_progress(path: Union[str, Path]) -> Optional[ProgressUpdate]:
    """Read a mirrored ``progress.json`` (None if absent/unreadable) —
    the cross-process poll used by the ``jobs`` CLI."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if payload.get("eta_s") is None:
        payload["eta_s"] = float("inf")
    try:
        return ProgressUpdate(**payload)
    except TypeError:
        return None
