"""Structured per-iteration observation of a running reconstruction.

Every reconstructor (gradient decomposition, halo exchange, serial) emits
one :class:`IterationEvent` per iteration to each observer passed via its
``reconstruct(..., observers=[...])`` parameter.  An observer is any
callable taking a single :class:`IterationEvent`; stateful observers
(e.g. :class:`repro.api.events.CheckpointPolicy`) are plain objects with
``__call__``.

The event carries a lazy ``snapshot`` thunk so expensive state
materialization (stitching tiles into a full volume) only happens for
observers that ask for it.

This module lives in :mod:`repro.core` so the reconstructors can import it
without depending on the higher-level :mod:`repro.api` package; the public
API re-exports everything here as ``repro.api.IterationEvent`` etc.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.reconstructor import ReconstructionResult

__all__ = [
    "IterationEvent",
    "Observer",
    "dispatch",
]


@dataclass(frozen=True)
class IterationEvent:
    """One iteration of a reconstruction, as seen by observers.

    Events are **run-global**: resumed runs and streaming epochs relay
    theirs through :func:`~repro.core.reconstructor.relay_leg`, so
    ``iteration``, ``n_iterations`` and traffic read as in the
    uninterrupted run, and the memory peaks are the run's high-water.
    ``elapsed_s`` alone is per call: result archives carry no elapsed
    time to continue from.

    Attributes
    ----------
    solver:
        Registry name of the emitting solver (``"gd"``, ``"hve"``,
        ``"serial"``, or a third-party registration).
    iteration:
        0-based run iteration just completed.
    n_iterations:
        Iterations the run will have executed when this call ends (a
        resumed leg's archive iterations plus its own).
    cost:
        Sweep cost of this iteration (what ends up in
        ``ReconstructionResult.history``).
    elapsed_s:
        Wall-clock seconds since this call started (see above).
    messages / message_bytes:
        Cumulative point-to-point traffic of the run so far.
    peak_memory_per_rank:
        Per-rank peak allocation of the run so far (a resumed or
        streamed leg's relay folds in the earlier legs' peaks with
        :func:`~repro.core.reconstructor.fold_leg`'s element-wise max),
        so it equals ``snapshot().peak_memory_per_rank``.
    snapshot:
        Zero-argument callable materializing the reconstruction state as
        a :class:`~repro.core.reconstructor.ReconstructionResult`
        (stitched volume + history), always describing the state *at the
        moment it is called* — call it during observation for the
        per-iteration state.  Lazy: only observers that need state
        (checkpointing, live imaging) pay the stitching cost.
    coverage:
        Fraction of advertised scan positions whose frames had arrived
        when this iteration's sweep was planned, in (0, 1].  ``None``
        for static runs — only the streaming driver stamps it (see
        :mod:`repro.api.streaming`).
    """

    solver: str
    iteration: int
    n_iterations: int
    cost: float
    elapsed_s: float
    messages: int
    message_bytes: int
    peak_memory_per_rank: List[int]
    snapshot: Callable[[], "ReconstructionResult"] = field(
        repr=False, compare=False
    )
    coverage: Optional[float] = None

    @property
    def peak_memory_bytes(self) -> float:
        """Mean of :attr:`peak_memory_per_rank` (the paper's memory
        metric, as :attr:`~repro.core.reconstructor.ReconstructionResult.
        peak_memory_mean`)."""
        return float(np.mean(self.peak_memory_per_rank))

    @property
    def is_last(self) -> bool:
        """True on the final iteration of the run."""
        return self.iteration == self.n_iterations - 1


#: An observer is any callable consuming an :class:`IterationEvent`.
Observer = Callable[[IterationEvent], None]


def dispatch(observers: Iterable[Observer], event: IterationEvent) -> None:
    """Deliver ``event`` to every observer, in order.

    Observer exceptions propagate — a failing checkpoint writer should
    abort the run loudly, not corrupt a multi-hour reconstruction
    silently.
    """
    for observer in observers:
        observer(event)
