"""Stateful observers built on the iteration-event stream.

:class:`~repro.core.observers.IterationEvent` and the observer calling
convention live in :mod:`repro.core.observers` (re-exported here and at
the package top level); this module adds observers that need the I/O
layer, chiefly periodic checkpointing through :mod:`repro.io.storage`.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Union

from repro.api.config import ReconstructionConfig
from repro.core.observers import IterationEvent, Observer, dispatch
from repro.io.storage import save_result
from repro.obs import telemetry as _obs

__all__ = [
    "IterationEvent",
    "Observer",
    "dispatch",
    "CheckpointPolicy",
]


class CheckpointPolicy:
    """Observer that snapshots the run to disk every ``every`` iterations.

    Checkpoints are full result archives written through
    :func:`repro.io.storage.save_result`, so any of them can seed a
    restart via ``run_params={"resume": path}`` (or the CLI's
    ``--resume``).  Pass the run's config to embed it in every
    checkpoint for provenance.

    Parameters
    ----------
    directory:
        Where checkpoints land (created on first write).
    every:
        Checkpoint cadence in iterations; the count is 1-based, so
        ``every=2`` writes after iterations 2, 4, 6, ...
    prefix:
        Archive filename prefix (``<prefix>_iter0004.npz``).
    config:
        Optional :class:`~repro.api.config.ReconstructionConfig` embedded
        in each checkpoint archive.
    keep_last:
        If set, only the newest ``keep_last`` checkpoints are kept on
        disk (older ones are deleted after each write).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        every: int = 1,
        prefix: str = "checkpoint",
        config: Optional[ReconstructionConfig] = None,
        keep_last: Optional[int] = None,
    ) -> None:
        if every <= 0:
            raise ValueError("every must be positive")
        if keep_last is not None and keep_last <= 0:
            raise ValueError("keep_last must be positive")
        self.directory = Path(directory)
        self.every = every
        self.prefix = prefix
        self.config = config
        self.keep_last = keep_last
        #: Paths written so far, oldest first (pruned ones removed).
        self.saved_paths: List[Path] = []

    def __call__(self, event: IterationEvent) -> None:
        if (event.iteration + 1) % self.every != 0:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / (
            f"{self.prefix}_iter{event.iteration + 1:04d}.npz"
        )
        tel = _obs.current()
        if tel.enabled:
            with tel.span("checkpoint.save", iteration=event.iteration):
                save_result(path, event.snapshot(), config=self.config)
        else:
            save_result(path, event.snapshot(), config=self.config)
        self.saved_paths.append(path)
        if self.keep_last is not None:
            while len(self.saved_paths) > self.keep_last:
                stale = self.saved_paths.pop(0)
                stale.unlink(missing_ok=True)

    @property
    def latest(self) -> Optional[Path]:
        """Newest checkpoint on disk, or None before the first write."""
        return self.saved_paths[-1] if self.saved_paths else None
