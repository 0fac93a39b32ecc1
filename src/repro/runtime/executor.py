"""The executor seam: *where* a reconstruction's rank programs run.

A reconstructor compiles one iteration to a :class:`~repro.schedule.ops.
Schedule` and hands it — together with everything the numeric engine
needs, in an :class:`EnginePlan` whose run options are one
:class:`~repro.runtime.options.RunOptions` — to an :class:`Executor`.
The executor owns placement:

* ``"serial"`` — today's path: one :class:`~repro.core.engine.
  NumericEngine` hosts every rank in-process behind a
  :class:`~repro.parallel.comm.VirtualComm` (bit-exact, zero overhead,
  the correctness reference);
* ``"process"`` — :class:`~repro.runtime.process.ProcessExecutor`:
  contiguous blocks of :class:`~repro.core.decomposition.RankTile` run
  in worker processes, tile volumes and gradient buffers live in
  ``multiprocessing.shared_memory``, and each worker's communicator is
  the same ``VirtualComm`` with a transport added
  (:class:`~repro.runtime.process_comm.ProcessComm`) — only messages
  between ranks of *different* workers leave a process.

Executors register under a short name with :func:`register_executor`
(mirroring the solver and backend registries), and ambient resolution
follows the same precedence rule as backends: **explicit argument →
``REPRO_EXECUTOR`` environment → the built-in ``serial`` default**.  An
explicit ``executor=`` (e.g. pinned in a replayed config) is never
overridden by the environment.

The :class:`ExecutionSession` contract is intentionally small — step one
iteration, expose live volumes/counters, close — so the one run driver
(:func:`repro.core.reconstructor.run_session`) stays executor-agnostic.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Type,
    Union,
)

import numpy as np

from repro.runtime.options import RunOptions

if TYPE_CHECKING:  # pragma: no cover - annotations only; the runtime
    # package must stay importable mid-way through repro.core's own
    # initialization (core.reconstructor imports this module).
    from repro.core.decomposition import Decomposition
    from repro.core.engine import NumericEngine
    from repro.physics.dataset import PtychoDataset
    from repro.schedule.ops import Schedule

__all__ = [
    "ENV_EXECUTOR",
    "DEFAULT_EXECUTOR_NAME",
    "UnknownExecutorError",
    "EnginePlan",
    "ExecutionSession",
    "Executor",
    "SerialExecutor",
    "register_executor",
    "unregister_executor",
    "executor_names",
    "get_executor",
    "resolve_executor",
    "default_executor_name",
]

#: Environment variable consulted when no explicit executor is given.
ENV_EXECUTOR = "REPRO_EXECUTOR"

#: Process-wide fallback (the bit-exact in-process reference).
DEFAULT_EXECUTOR_NAME = "serial"


class UnknownExecutorError(ValueError):
    """Raised for an executor name not in the registry; the message
    always lists what *is* registered."""


# ----------------------------------------------------------------------
# The launch payload
# ----------------------------------------------------------------------
@dataclass
class EnginePlan:
    """Everything a session needs to build per-rank numeric engines.

    One plan describes one reconstruction run; it is deliberately plain
    (dataset + decomposition + schedule + scalars + the frozen
    :class:`~repro.runtime.options.RunOptions`) so the process executor
    can ship it to worker processes under either the ``fork`` or the
    ``spawn`` start method.
    """

    dataset: "PtychoDataset"
    decomp: "Decomposition"
    schedule: "Schedule"
    lr: float
    compensate_local: bool = False
    initial_probe: Optional[np.ndarray] = None
    refine_probe: bool = False
    initial_volume: Optional[np.ndarray] = None
    #: The run options, carried whole (see :class:`RunOptions`).  A
    #: ``data_source`` path ships to workers, each of which opens its
    #: own store handle; file-backed store *instances* are re-opened per
    #: worker via ``worker_copy()`` (fork would otherwise share the
    #: parent's file descriptor), while the in-memory reference rides
    #: fork's page sharing (or the pickle under spawn) as-is.
    options: RunOptions = field(default_factory=RunOptions)
    #: Record per-rank telemetry in worker processes and ship it back
    #: with each step report (set by the reconstructor from the active
    #: recorder; see :mod:`repro.obs`).  Plain bool so it pickles.
    telemetry: bool = False


# ----------------------------------------------------------------------
# Session + executor contracts
# ----------------------------------------------------------------------
class ExecutionSession(ABC):
    """A launched reconstruction: per-iteration stepping + state access.

    Volumes returned by :meth:`volumes` are *live* (they reflect the
    state after the most recent :meth:`step`); sessions guarantee they
    are safe to read between steps.
    """

    @abstractmethod
    def step(self) -> float:
        """Run one full iteration; returns the sweep cost."""

    @abstractmethod
    def volumes(self) -> List[np.ndarray]:
        """Per-rank extended-tile volumes, index-aligned with ranks."""

    @abstractmethod
    def probe(self) -> Optional[np.ndarray]:
        """Rank 0's current probe estimate (``None`` unless refining)."""

    @property
    @abstractmethod
    def messages(self) -> int:
        """Cumulative point-to-point + collective message count."""

    @property
    @abstractmethod
    def message_bytes(self) -> int:
        """Cumulative traffic volume in bytes."""

    @property
    @abstractmethod
    def per_rank_peaks(self) -> List[int]:
        """Measured peak bytes per rank."""

    def close(self) -> None:
        """Release resources (worker processes, shared memory)."""

    def __enter__(self) -> "ExecutionSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Executor(ABC):
    """One placement strategy for rank programs (see module docstring)."""

    #: Registry name (set by :func:`register_executor`).
    name: str = ""

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers <= 0:
            raise ValueError("workers must be positive")
        self.workers = workers

    @abstractmethod
    def launch(self, plan: EnginePlan) -> ExecutionSession:
        """Build the per-rank engines and return a steppable session."""


# ----------------------------------------------------------------------
# The serial reference executor
# ----------------------------------------------------------------------
class _SerialSession(ExecutionSession):
    """All ranks in one engine behind a VirtualComm — the seed path."""

    def __init__(self, engine: "NumericEngine", schedule: "Schedule") -> None:
        self.engine = engine
        self._schedule = schedule

    def step(self) -> float:
        self.engine.execute(self._schedule)
        return self.engine.iteration_cost()

    def close(self) -> None:
        self.engine.close()

    def volumes(self) -> List[np.ndarray]:
        return self.engine.volumes()

    def probe(self) -> Optional[np.ndarray]:
        return self.engine.current_probe()

    @property
    def messages(self) -> int:
        return self.engine.comm.sent_messages

    @property
    def message_bytes(self) -> int:
        return int(self.engine.comm.sent_bytes)

    @property
    def per_rank_peaks(self) -> List[int]:
        return self.engine.memory.per_rank_peaks()


class SerialExecutor(Executor):
    """The in-process reference: every rank in one sequential engine.

    ``workers`` is accepted for interface uniformity and ignored (there
    is exactly one OS thread of execution by construction).
    """

    def launch(self, plan: EnginePlan) -> ExecutionSession:
        from repro.core.engine import NumericEngine

        return _SerialSession(NumericEngine.from_plan(plan), plan.schedule)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[Executor]] = {}


def register_executor(
    name: str, *, overwrite: bool = False
) -> Callable[[Type[Executor]], Type[Executor]]:
    """Class decorator registering an executor under ``name`` (mirrors
    :func:`repro.backend.register_backend`)."""
    if not isinstance(name, str) or not name:
        raise ValueError("executor name must be a non-empty string")

    def decorator(cls: Type[Executor]) -> Type[Executor]:
        if not callable(getattr(cls, "launch", None)):
            raise TypeError(
                f"cannot register {cls.__name__!r}: executors must define "
                "launch(plan)"
            )
        if name in _REGISTRY and not overwrite:
            raise ValueError(
                f"executor {name!r} is already registered "
                f"(by {_REGISTRY[name].__name__}); pass overwrite=True "
                "to replace"
            )
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorator


def unregister_executor(name: str) -> None:
    """Remove a registration (mainly for tests and plugin teardown)."""
    if name not in _REGISTRY:
        raise UnknownExecutorError(_unknown_message(name))
    del _REGISTRY[name]


def executor_names() -> List[str]:
    """Sorted names of all registered executors."""
    return sorted(_REGISTRY)


def get_executor(name: str) -> Type[Executor]:
    """The executor class registered under ``name``."""
    try:
        return _REGISTRY[str(name)]
    except KeyError:
        raise UnknownExecutorError(_unknown_message(str(name))) from None


def default_executor_name() -> str:
    """The ambient executor name (``REPRO_EXECUTOR`` or ``serial``)."""
    return os.environ.get(ENV_EXECUTOR, DEFAULT_EXECUTOR_NAME)


def resolve_executor(
    spec: Union[str, Executor, None] = None,
    workers: Optional[int] = None,
) -> Executor:
    """Explicit spec → executor; ``None`` → ``REPRO_EXECUTOR`` env var
    or the ``serial`` default.

    The precedence rule is the backend rule: an *explicit* executor —
    a constructor argument, a pinned config field — always wins over
    the environment; the environment only fills the ambient gap.

    An already-constructed ``Executor`` instance carries its own worker
    configuration, so combining one with ``workers=`` is a conflict and
    raises rather than silently ignoring either side.
    """
    if isinstance(spec, Executor):
        if workers is not None and workers != spec.workers:
            raise ValueError(
                f"workers={workers} conflicts with the supplied "
                f"{type(spec).__name__} instance "
                f"(workers={spec.workers}); configure the instance or "
                "pass a registry name"
            )
        return spec
    if spec is None:
        spec = default_executor_name()
    cls = get_executor(spec)
    return cls(workers=workers)


def _unknown_message(name: str) -> str:
    registered = ", ".join(executor_names()) or "(none)"
    return f"unknown executor {name!r}; registered executors: {registered}"


register_executor("serial")(SerialExecutor)
