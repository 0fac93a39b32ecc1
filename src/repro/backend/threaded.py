"""The ``threaded`` backend: ``scipy.fft`` with a worker pool and plans.

``scipy.fft``'s pocketfft gives three things ``np.fft`` cannot:

* **native single precision** — ``complex64`` input transforms in
  ``complex64`` (half the memory traffic, roughly half the flop width),
  which is the whole point of the :class:`~repro.backend.PrecisionPolicy`
  fast path;
* **a worker pool** — batched probe-window transforms (the
  ``(n_slices, window, window)`` stacks of the multislice sweep) split
  across ``workers`` threads;
* **measurably faster kernels** even serially (vectorized pocketfft).

scipy's pocketfft caches twiddle factors internally per shape; the
:class:`FFTPlan` layer on top pins the *worker-count decision* per
``(batch, shape, dtype)`` signature so the heuristic runs once, and
counts reuse so the benchmark harness can report plan-cache hit rates.
The plan cache is a bounded LRU (``max_plans``) so services that sweep
many transform shapes cannot grow it without limit, and the backend
supports explicit shutdown: ``close()`` (or a ``with`` block) drops the
plans and refuses further transforms — the registry closes its cached
instance on eviction, so long-lived processes do not accumulate stale
execution state across backend reconfigurations.

Numerics: pocketfft's vectorized kernels reorder floating-point
operations relative to ``np.fft``, so results agree with the numpy
backend to machine epsilon but are **not bit-identical** — the parity
suite asserts eps-level agreement at ``complex128`` and keeps strict
bit-identity guarantees on the numpy backend only.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.backend.base import ArrayBackend, register_backend

__all__ = ["ThreadedFFTBackend", "FFTPlan"]

#: Transforms smaller than this many elements are not worth a thread
#: hand-off; pocketfft runs them on the calling thread.
_SERIAL_CUTOFF = 1 << 15


def _scipy_fft():
    """Import ``scipy.fft`` lazily so the library (and its import-time
    registration) works on scipy-less installs."""
    import scipy.fft

    return scipy.fft


@dataclass
class FFTPlan:
    """A cached execution decision for one transform signature."""

    shape: Tuple[int, ...]
    dtype: np.dtype
    workers: int
    hits: int = field(default=0)


@register_backend("threaded")
class ThreadedFFTBackend(ArrayBackend):
    """Planned, multi-worker ``scipy.fft`` execution.

    Parameters
    ----------
    workers:
        Worker-pool width for batched transforms; defaults to the CPU
        count (capped at 8 — pocketfft's batch parallelism stops paying
        beyond that for probe-window sizes).
    max_plans:
        Plan-cache bound; least-recently-used plans are evicted beyond
        it.  A reconstruction touches a handful of transform signatures,
        so the default never evicts in practice — the bound exists so a
        long-lived service sweeping many shapes cannot leak.
    """

    def __init__(
        self, workers: Optional[int] = None, max_plans: int = 128
    ) -> None:
        if workers is not None and workers <= 0:
            raise ValueError("workers must be positive")
        if max_plans <= 0:
            raise ValueError("max_plans must be positive")
        self.workers = (
            workers
            if workers is not None
            else max(1, min(os.cpu_count() or 1, 8))
        )
        self.max_plans = max_plans
        self._plans: "OrderedDict[Tuple[Tuple[int, ...], np.dtype], FFTPlan]" = (
            OrderedDict()
        )
        self._hits = 0
        self._evictions = 0
        self._closed = False
        # Threads of one process share one registry-cached instance
        # (service jobs do not: each leg process builds its own); the
        # OrderedDict mutations (insert, move_to_end, LRU pop) are not
        # atomic, so plan lookup/creation and close serialize here.
        # The transforms themselves run outside the lock (scipy releases
        # the GIL), so only the bookkeeping is single-file.
        self._lock = threading.Lock()

    @classmethod
    def available(cls) -> bool:
        try:
            _scipy_fft()
        except ImportError:  # pragma: no cover - scipy is present in CI
            return False
        return True

    # ------------------------------------------------------------------
    def fft2(self, a: np.ndarray, norm: str = "ortho") -> np.ndarray:
        plan = self._plan_for(a)
        return _scipy_fft().fft2(
            a, norm=norm, axes=(-2, -1), workers=plan.workers
        )

    def ifft2(self, a: np.ndarray, norm: str = "ortho") -> np.ndarray:
        plan = self._plan_for(a)
        return _scipy_fft().ifft2(
            a, norm=norm, axes=(-2, -1), workers=plan.workers
        )

    # ------------------------------------------------------------------
    def _plan_for(self, a: np.ndarray) -> FFTPlan:
        """Fetch (or create) the plan for ``a``'s transform signature.

        scipy preserves single precision natively, so the plan's only
        job is the worker decision: tiny transforms stay serial (thread
        hand-off costs more than the butterfly), batches use the pool.
        Lookups refresh LRU order; creation beyond ``max_plans`` evicts
        the least-recently-used signature.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError(
                    "ThreadedFFTBackend is closed; construct a new instance "
                    "(or let the registry do it via get_backend)"
                )
            key = (a.shape, a.dtype)
            plan = self._plans.get(key)
            if plan is None:
                workers = 1 if a.size < _SERIAL_CUTOFF else self.workers
                plan = FFTPlan(shape=a.shape, dtype=a.dtype, workers=workers)
                self._plans[key] = plan
                if len(self._plans) > self.max_plans:
                    self._plans.popitem(last=False)
                    self._evictions += 1
            else:
                self._plans.move_to_end(key)
                plan.hits += 1
                self._hits += 1
            return plan

    def plan_stats(self) -> dict:
        """Distinct live plans, total cache hits, and LRU evictions."""
        with self._lock:
            return {
                "plans": len(self._plans),
                "hits": self._hits,
                "evictions": self._evictions,
            }

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the plan cache and refuse further transforms.

        scipy's per-call worker threads are joined inside each
        transform, so the pool itself holds nothing between calls; what
        a long-lived service leaks by re-constructing backends is plan
        state — this releases it deterministically.  Idempotent, and
        serialized against in-flight plan lookups so a closing job never
        clears the cache mid-mutation.
        """
        with self._lock:
            self._plans.clear()
            self._closed = True

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ThreadedFFTBackend(workers={self.workers})"
