"""repro.runtime — where rank programs execute.

The executor subsystem turns the decomposition the library *plans* into
parallelism it actually *runs*:

* :class:`Executor` / :func:`register_executor` — the placement registry
  (``"serial"``: all ranks in one process, the bit-exact reference;
  ``"process"``: one worker process per rank block, tile state in
  ``multiprocessing.shared_memory``, messages through
  :class:`ProcessComm`).
* :func:`resolve_executor` — ambient resolution with the backend rule:
  explicit argument → ``REPRO_EXECUTOR`` environment → ``serial``.  An
  executor pinned in a config is never overridden by the environment.
* :class:`EnginePlan` / :class:`ExecutionSession` — the small contract
  between a reconstructor's run loop and an executor.
* :class:`RunOptions` (:mod:`repro.runtime.options`) — the frozen run
  options every layer carries whole: reconstructor → plan → engine →
  worker.

Minimal use::

    GradientDecompositionReconstructor(
        n_ranks=4, executor="process", runtime_workers=4
    ).reconstruct(dataset)

or declaratively::

    ReconstructionConfig("gd", {...}, executor="process")
    repro-ptycho reconstruct --executor process ...

The ``process`` executor is fingerprint-identical to ``serial`` on the
numpy backend — same volumes bit-for-bit, same cost history, same
message/byte accounting (tested in ``tests/runtime``).
"""

from repro.runtime.executor import (
    DEFAULT_EXECUTOR_NAME,
    ENV_EXECUTOR,
    EnginePlan,
    ExecutionSession,
    Executor,
    SerialExecutor,
    UnknownExecutorError,
    default_executor_name,
    executor_names,
    get_executor,
    register_executor,
    resolve_executor,
    unregister_executor,
)
from repro.runtime.options import RunOptions
from repro.runtime.process import ProcessExecutor, partition_ranks
from repro.runtime.process_comm import CommChannels, ProcessComm

__all__ = [
    "ENV_EXECUTOR",
    "DEFAULT_EXECUTOR_NAME",
    "UnknownExecutorError",
    "EnginePlan",
    "RunOptions",
    "ExecutionSession",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "ProcessComm",
    "CommChannels",
    "partition_ranks",
    "register_executor",
    "unregister_executor",
    "executor_names",
    "get_executor",
    "resolve_executor",
    "default_executor_name",
]
