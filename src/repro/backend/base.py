"""The compute-backend seam: array/FFT execution + precision policy.

Every hot-path transform in the library dispatches through an
:class:`ArrayBackend`.  Backends register under a short name with
:func:`register_backend` (mirroring the solver registry of
:mod:`repro.api.registry`); the stack resolves names through this module,
so swapping ``numpy`` for the threaded scipy backend — or a GPU backend —
requires no edits to any physics or engine code::

    from repro.backend import register_backend, ArrayBackend

    @register_backend("mylib")
    class MyBackend(ArrayBackend):
        name = "mylib"
        def fft2(self, a, norm="ortho"): ...
        def ifft2(self, a, norm="ortho"): ...

Two orthogonal knobs travel together through the stack:

* **backend** — *who* executes the transforms (``"numpy"``,
  ``"threaded"``, ``"cupy"`` when installed, or a third-party
  registration);
* **precision** — *at what width* (:class:`PrecisionPolicy`):
  ``complex128`` (the bit-exact reference) or ``complex64`` (half the
  memory and roughly twice the FFT throughput — the paper's memory
  model assumes this storage width).

The **dtype-preservation contract** every backend honours: single-width
input (``complex64``/``float32``) transforms to ``complex64`` output;
everything else to ``complex128``.  ``np.fft`` itself does this since
numpy 2.0 (the floor this package states; older releases upcast every
transform to ``complex128``, which defeats the memory model), so the
contract costs the ``numpy`` backend nothing.

Ambient defaults resolve in order: explicit argument → a process-wide
default *explicitly set* in code (:func:`set_default_backend` /
:func:`use_backend` — a with-block is more specific than the
environment) → the ``REPRO_BACKEND`` / ``REPRO_DTYPE`` environment
variables (how CI runs the whole tier-1 suite on the threaded backend)
→ the built-in ``numpy`` / ``complex128`` reference.
"""

from __future__ import annotations

import os
import threading
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Type, Union

import numpy as np

__all__ = [
    "ArrayBackend",
    "PrecisionPolicy",
    "DOUBLE",
    "SINGLE",
    "UnknownBackendError",
    "BackendUnavailableError",
    "register_backend",
    "unregister_backend",
    "backend_names",
    "available_backend_names",
    "get_backend",
    "resolve_backend",
    "resolve_precision",
    "set_default_backend",
    "get_default_backend",
    "default_backend_name",
    "default_dtype_name",
    "use_backend",
    "ENV_BACKEND",
    "ENV_DTYPE",
    "DEFAULT_BACKEND_NAME",
    "DEFAULT_DTYPE_NAME",
]

#: Environment variables consulted when no explicit backend/dtype is given.
ENV_BACKEND = "REPRO_BACKEND"
ENV_DTYPE = "REPRO_DTYPE"

#: Process-wide fallbacks (the bit-exact reference configuration).
DEFAULT_BACKEND_NAME = "numpy"
DEFAULT_DTYPE_NAME = "complex128"


class UnknownBackendError(ValueError):
    """Raised for a backend name not in the registry; the message always
    lists what *is* registered."""


class BackendUnavailableError(RuntimeError):
    """Raised when a registered backend cannot run here (missing optional
    dependency, no GPU, ...)."""


# ----------------------------------------------------------------------
# Precision policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PrecisionPolicy:
    """Complex/real dtype pair all compute arrays of a run share.

    ``complex128`` is the default (bit-identical to the historical
    hard-wired behaviour); ``complex64`` is the fast path matching the
    paper's storage model (Table I accounts the volume at 8 bytes per
    voxel).  The policy travels with the backend through every layer so
    allocation, transforms and byte accounting agree on one width.
    """

    name: str
    complex_dtype: np.dtype
    real_dtype: np.dtype

    @property
    def complex_itemsize(self) -> int:
        """Bytes per complex element (16 or 8)."""
        return self.complex_dtype.itemsize

    @property
    def real_itemsize(self) -> int:
        """Bytes per real element (8 or 4)."""
        return self.real_dtype.itemsize

    @classmethod
    def from_name(
        cls, spec: Union[str, "PrecisionPolicy", None]
    ) -> "PrecisionPolicy":
        """Resolve ``"complex128"``/``"complex64"`` (or a policy
        passthrough, or ``None`` for the ambient default)."""
        if spec is None:
            return cls.from_name(default_dtype_name())
        if isinstance(spec, PrecisionPolicy):
            return spec
        try:
            return _POLICIES[str(spec)]
        except KeyError:
            raise ValueError(
                f"unknown precision {spec!r}; choose from "
                f"{sorted(_POLICIES)}"
            ) from None


#: The bit-exact reference precision.
DOUBLE = PrecisionPolicy(
    "complex128", np.dtype(np.complex128), np.dtype(np.float64)
)
#: The memory-lean fast path (half the bytes, ~2x the FFT throughput).
SINGLE = PrecisionPolicy(
    "complex64", np.dtype(np.complex64), np.dtype(np.float32)
)

_POLICIES: Dict[str, PrecisionPolicy] = {p.name: p for p in (DOUBLE, SINGLE)}


def resolve_precision(
    spec: Union[str, PrecisionPolicy, None] = None
) -> PrecisionPolicy:
    """Explicit spec → policy; ``None`` → ``REPRO_DTYPE`` env var or the
    ``complex128`` default."""
    return PrecisionPolicy.from_name(spec)


def default_dtype_name() -> str:
    """The ambient precision name (``REPRO_DTYPE`` or ``complex128``)."""
    return os.environ.get(ENV_DTYPE, DEFAULT_DTYPE_NAME)


# ----------------------------------------------------------------------
# Backend protocol
# ----------------------------------------------------------------------
class ArrayBackend(ABC):
    """One array + FFT execution strategy (see module docstring).

    Subclasses implement :meth:`fft2`/:meth:`ifft2` over the *last two
    axes* and must honour the dtype-preservation contract; the centered
    (``fftshift``) and unitary (``norm="ortho"``) conventions stay in
    :mod:`repro.utils.fftutils`, which dispatches here.
    """

    #: Registry name (set by :func:`register_backend`).
    name: str = ""

    @classmethod
    def available(cls) -> bool:
        """Whether this backend can run in the current environment
        (optional dependencies importable, device present, ...)."""
        return True

    @property
    def xp(self):
        """The array namespace the backend computes in (``numpy`` for
        every CPU backend; ``cupy`` on the GPU)."""
        return np

    # -- transforms ----------------------------------------------------
    @abstractmethod
    def fft2(self, a: np.ndarray, norm: str = "ortho") -> np.ndarray:
        """2-D FFT over the last two axes, dtype-preserving."""

    @abstractmethod
    def ifft2(self, a: np.ndarray, norm: str = "ortho") -> np.ndarray:
        """2-D inverse FFT over the last two axes, dtype-preserving."""

    # -- helpers -------------------------------------------------------
    @staticmethod
    def complex_dtype_of(a: np.ndarray) -> np.dtype:
        """The output dtype the preservation contract demands for ``a``:
        single-width input → ``complex64``, everything else →
        ``complex128``."""
        if a.dtype in (np.complex64, np.float32, np.float16):
            return np.dtype(np.complex64)
        return np.dtype(np.complex128)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Type[ArrayBackend]] = {}
_INSTANCES: Dict[str, ArrayBackend] = {}
#: Guards every mutation of the registry/instance tables.
_LOCK = threading.RLock()
#: One-slot mutable cell holding the in-code default — a name *or a
#: configured instance* (``use_backend(ThreadedFFTBackend(workers=2))``
#: must honour the caller's instance, not just its registry name).
#: ``None`` = never explicitly set, so ambient resolution falls through
#: to the environment.
_DEFAULT_SPEC: List[Union[str, ArrayBackend, None]] = [None]


def register_backend(
    name: str, *, overwrite: bool = False
) -> Callable[[Type[ArrayBackend]], Type[ArrayBackend]]:
    """Class decorator registering a backend under ``name``.

    Mirrors :func:`repro.api.register_solver`: re-registering an existing
    name raises unless ``overwrite=True``; the class gains a ``name``
    attribute set to the registration name.
    """
    if not isinstance(name, str) or not name:
        raise ValueError("backend name must be a non-empty string")

    def decorator(cls: Type[ArrayBackend]) -> Type[ArrayBackend]:
        for method in ("fft2", "ifft2"):
            if not callable(getattr(cls, method, None)):
                raise TypeError(
                    f"cannot register {cls.__name__!r}: backends must "
                    f"define {method}(a, norm=...)"
                )
        if name in _REGISTRY and not overwrite:
            raise ValueError(
                f"backend {name!r} is already registered "
                f"(by {_REGISTRY[name].__name__}); pass overwrite=True "
                "to replace"
            )
        cls.name = name
        with _LOCK:
            _REGISTRY[name] = cls
            _INSTANCES.pop(name, None)
        return cls

    return decorator


def unregister_backend(name: str) -> None:
    """Remove a registration (mainly for tests and plugin teardown),
    dropping its cached instance."""
    with _LOCK:
        if name not in _REGISTRY:
            raise UnknownBackendError(_unknown_message(name))
        del _REGISTRY[name]
        _INSTANCES.pop(name, None)


def backend_names() -> List[str]:
    """Sorted names of all registered backends (available or not)."""
    return sorted(_REGISTRY)


def available_backend_names() -> List[str]:
    """Sorted names of the backends that can actually run here."""
    return sorted(n for n, cls in _REGISTRY.items() if cls.available())


def get_backend(spec: Union[str, ArrayBackend]) -> ArrayBackend:
    """Resolve a name (or instance passthrough) to a backend instance.

    Default-constructed instances are cached per name, so repeated
    lookups share one instance.
    """
    if isinstance(spec, ArrayBackend):
        return spec
    name = str(spec)
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise UnknownBackendError(_unknown_message(name)) from None
    if not cls.available():
        raise BackendUnavailableError(
            f"backend {name!r} is registered but not available in this "
            f"environment (available: {', '.join(available_backend_names()) or '(none)'})"
        )
    with _LOCK:
        if name not in _INSTANCES:
            _INSTANCES[name] = cls()
        return _INSTANCES[name]


def resolve_backend(
    spec: Union[str, ArrayBackend, None] = None
) -> ArrayBackend:
    """Explicit spec → backend; ``None`` → the in-code default
    (:func:`set_default_backend` / :func:`use_backend`, instances
    honoured as-is), else ``REPRO_BACKEND``, else ``numpy``."""
    if spec is None:
        spec = _DEFAULT_SPEC[0]
    if spec is None:
        spec = os.environ.get(ENV_BACKEND, DEFAULT_BACKEND_NAME)
    return get_backend(spec)


def default_backend_name() -> str:
    """The registry name ambient resolution currently lands on."""
    return resolve_backend(None).name


def set_default_backend(spec: Union[str, ArrayBackend]) -> None:
    """Change the process-wide default backend (validated immediately).
    A configured *instance* is kept as the default itself — its worker
    count serves every ambient resolution."""
    get_backend(spec)  # validate registration/availability now
    _DEFAULT_SPEC[0] = spec


def get_default_backend() -> ArrayBackend:
    """The backend ambient resolution currently lands on."""
    return resolve_backend(None)


@contextmanager
def use_backend(spec: Union[str, ArrayBackend]) -> Iterator[ArrayBackend]:
    """Temporarily make ``spec`` the process-wide default backend::

        with use_backend("threaded"):
            result = repro.reconstruct(dataset, config)

    Passing a configured instance (e.g. ``ThreadedFFTBackend(workers=2)``)
    makes *that instance* serve every ambient resolution in the scope.
    """
    backend = get_backend(spec)
    previous = _DEFAULT_SPEC[0]
    _DEFAULT_SPEC[0] = backend
    try:
        yield backend
    finally:
        _DEFAULT_SPEC[0] = previous


def _unknown_message(name: str) -> str:
    registered = ", ".join(backend_names()) or "(none)"
    return f"unknown backend {name!r}; registered backends: {registered}"
