"""Outside-in timing spans over the program's public callables.

The benchmark measures layers without editing them: :class:`Tracer`
replaces public functions (at every ``repro.*`` module that imported
them) and public methods (on the class and every subclass that
overrides them) with timing wrappers, and puts the originals back on
``uninstall``.  A span records name, thread, start, end, parent span
and the *operation* it belongs to; spans stay in memory until
:meth:`Tracer.drain`.

One operation is one job taken to an archived result.  The benchmark
opens its root span with :meth:`Tracer.begin` and closes it with
:meth:`Tracer.end`; a span with no parent on its own thread hangs off
the root of the thread's current operation.  Service worker threads
learn their operation from the job directory in the arguments of the
first call they make for a job (the operation id is the job id).
Calls made outside every open operation (dataset synthesis, loading a
result to check it) are recorded with no operation and counted nowhere.

A span's self time is its duration minus its children's, so over one
operation the self times add up to the root span, and the root's own
self time is the share no wrapped layer accounts for.

Worker processes forked while a tracer is installed inherit the
wrappers but record nothing: spans cannot leave the fork without a
change to the program.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Span", "Tracer", "NO_TRACER", "self_times", "write_chrome_trace"]

ROOT_NAME = "bench.operation"


class Span:
    """One timed call (or, for ``bench.operation``, one operation)."""

    __slots__ = ("id", "name", "tid", "start", "end", "parent", "op", "amount")

    def __init__(self, id, name, tid, start, parent, op):
        self.id = id
        self.name = name
        self.tid = tid
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        #: Work done by the call where it has a natural size: bytes
        #: transformed, read or written, or ops in a built schedule.
        self.amount = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _nbytes_in(args, kwargs, result) -> int:
    # FFT of one array: bytes read plus bytes written, from array sizes.
    return 2 * int(args[1].nbytes)


def _nbytes_out(args, kwargs, result) -> int:
    return int(result.nbytes)


def _payload_nbytes(args, kwargs, result) -> int:
    return int(getattr(args[1], "nbytes", 0))


def _file_size(args, kwargs, result) -> int:
    return os.path.getsize(result)


def _length(args, kwargs, result) -> int:
    return len(result)


def _subclasses(cls) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _targets() -> Tuple[list, list]:
    """``(functions, methods)`` to wrap: ``(span name, function, measure)``
    and ``(span name, classes, attribute, measure)``."""
    import repro  # noqa: F401  (loads every subpackage)
    from repro.backend.base import ArrayBackend
    from repro.baseline.halo_exchange import HaloExchangeReconstructor
    from repro.core.engine import NumericEngine
    from repro.core.reconstructor import GradientDecompositionReconstructor
    from repro.data.store import DiffractionStore
    from repro.parallel.comm import Request, VirtualComm
    from repro.physics.multislice import MultisliceModel
    from repro.runtime.executor import ExecutionSession, Executor
    from repro.service.service import ReconstructionService

    mod = sys.modules
    functions = [
        ("api.reconstruct", mod["repro.api.reconstruct"].reconstruct, None),
        ("fftutils.fft2c", mod["repro.utils.fftutils"].fft2c, None),
        ("fftutils.ifft2c", mod["repro.utils.fftutils"].ifft2c, None),
        ("core.stitch", mod["repro.core.stitching"].stitch, None),
        ("io.save_result", mod["repro.io.storage"].save_result, _file_size),
        ("io.load_result", mod["repro.io.storage"].load_result, None),
        ("io.save_dataset", mod["repro.io.storage"].save_dataset, _file_size),
        ("io.load_dataset", mod["repro.io.storage"].load_dataset, None),
        ("service.create_job", mod["repro.service.jobs"].create_job, None),
    ]
    solvers = [GradientDecompositionReconstructor, HaloExchangeReconstructor]
    sessions = _subclasses(ExecutionSession)
    backends = _subclasses(ArrayBackend)
    comms = _subclasses(VirtualComm)
    stores = _subclasses(DiffractionStore)
    methods = [
        ("core.decompose", solvers, "decompose", None),
        ("core.schedule", solvers, "build_iteration_schedule", _length),
        ("core.execute", [NumericEngine], "execute", None),
        ("runtime.launch", _subclasses(Executor), "launch", None),
        ("runtime.step", sessions, "step", None),
        ("runtime.volumes", sessions, "volumes", None),
        ("runtime.close", sessions, "close", None),
        ("physics.kernel", [MultisliceModel], "cost_and_gradient", None),
        ("physics.kernel", [MultisliceModel], "cost_and_gradient_batch", None),
        ("backend.fft2", backends, "fft2", _nbytes_in),
        ("backend.ifft2", backends, "ifft2", _nbytes_in),
        ("parallel.send", comms, "send", _payload_nbytes),
        ("parallel.isend", comms, "isend", None),
        ("parallel.recv", comms, "recv", None),
        ("parallel.irecv", comms, "irecv", None),
        ("parallel.wait", [Request], "wait", None),
        ("parallel.allreduce", comms, "allreduce_sum", None),
        ("parallel.barrier", comms, "barrier", None),
        ("data.read", stores, "read", _nbytes_out),
        ("data.read_batch", stores, "read_batch", _nbytes_out),
        ("service.submit", [ReconstructionService], "submit", None),
    ]
    return functions, methods


class Tracer:
    """Installs the wrappers and collects their spans (see module doc)."""

    def __init__(self) -> None:
        self.enabled = False
        self._spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._roots: Dict[str, Span] = {}
        self._patched: List[Tuple[Any, str, Any]] = []
        # Forked workers inherit the wrappers; they record nothing.
        os.register_at_fork(after_in_child=self._switch_off)

    def _switch_off(self) -> None:
        self.enabled = False

    # -- install / uninstall -------------------------------------------
    def install(self) -> "Tracer":
        functions, methods = _targets()
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))
        ]
        for span_name, fn, measure in functions:
            wrapper = self._wrap(span_name, fn, measure)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, wrapper)
        for span_name, classes, attr, measure in methods:
            for cls in classes:
                fn = vars(cls).get(attr)
                if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                    self._patch(cls, attr, self._wrap(span_name, fn, measure))
        self.enabled = True
        return self

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn: Callable, measure: Optional[Callable]):
        spans = self._spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
                parent_id, op = parent.id, parent.op
            else:
                op = self._operation_of(args)
                root = self._roots.get(op)
                parent_id = root.id if root is not None else None
            span = Span(next(ids), name, get_ident(), clock(), parent_id, op)
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if measure is not None:
                span.amount = measure(args, kwargs, result)
            return result

        return wrapper

    # -- operations ----------------------------------------------------
    def begin(self, op: str) -> None:
        """Open operation ``op``: calls on this thread belong to it
        until the next :meth:`begin` or its :meth:`end`."""
        root = Span(
            next(self._ids), ROOT_NAME, threading.get_ident(),
            time.perf_counter(), None, op,
        )
        self._roots[op] = root
        self._spans.append(root)
        self._local.op = op

    def end(self, op: str, at: Optional[float] = None) -> None:
        """Close operation ``op`` (``at``: the clock reading at which the
        benchmark observed it finished).  Later calls — loading the
        result to check it, say — belong to no operation."""
        self._roots.pop(op).end = time.perf_counter() if at is None else at

    def _operation_of(self, args: tuple) -> Optional[str]:
        """The open operation a parentless call belongs to: the one
        whose id names a directory in a path argument (a service job
        directory), else the thread's current one; ``None`` outside
        every operation (set-up, checks)."""
        for arg in args:
            if isinstance(arg, (str, os.PathLike)):
                for part in Path(arg).parts:
                    if part in self._roots:
                        self._local.op = part
                        return part
        op = getattr(self._local, "op", None)
        return op if op in self._roots else None

    def drain(self) -> List[Span]:
        """All spans recorded so far; the tracer starts over empty."""
        out = list(self._spans)
        del self._spans[:]
        self._roots.clear()
        return out


class _NoTracer:
    """What untraced repetitions open and close their operations on."""

    def begin(self, op: str) -> None:
        pass

    def end(self, op: str, at: Optional[float] = None) -> None:
        pass


NO_TRACER = _NoTracer()


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """``span id -> duration minus the children's durations``.  The
    children of one span never overlap: they run one after another on
    one thread, or (an operation's root) on the submitting thread and
    then on one worker thread."""
    covered: Dict[int, float] = defaultdict(float)
    spans = list(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return {span.id: span.duration - covered[span.id] for span in spans}


def write_chrome_trace(path: Path, spans: Iterable[Span]) -> None:
    """Write ``spans`` as Chrome trace-event JSON (chrome://tracing,
    Perfetto): one complete event per span, microseconds from the first
    span's start."""
    spans = list(spans)
    origin = min((s.start for s in spans), default=0.0)
    events = [
        {
            "name": s.name,
            "ph": "X",
            "ts": (s.start - origin) * 1e6,
            "dur": s.duration * 1e6,
            "pid": 1,
            "tid": s.tid,
            "args": {
                "id": s.id, "parent": s.parent, "op": s.op,
                "amount": s.amount,
            },
        }
        for s in spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
