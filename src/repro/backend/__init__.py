"""repro.backend — pluggable array/FFT execution + precision policy.

The pieces (one module each):

* :class:`ArrayBackend` / :func:`register_backend` — the execution
  protocol and its registry (``"numpy"``, ``"threaded"``, ``"cupy"``
  ship registered; third parties add their own the same way solvers
  do).
* :class:`PrecisionPolicy` — the complex/real dtype pair a run computes
  in (``complex128`` reference, ``complex64`` fast path), with
  dtype-preserving transforms on every backend.
* :func:`resolve_backend` / :func:`resolve_precision` — ambient
  resolution: explicit argument → ``REPRO_BACKEND``/``REPRO_DTYPE``
  environment → process default.

Minimal use::

    from repro.backend import use_backend

    with use_backend("threaded"):
        result = repro.reconstruct(dataset, config)   # threaded FFTs

or declaratively, through the config/CLI layer::

    ReconstructionConfig("gd", {...}, backend="threaded", dtype="complex64")
    repro-ptycho reconstruct --backend threaded --dtype complex64 ...
"""

from repro.backend.base import (
    DEFAULT_BACKEND_NAME,
    DEFAULT_DTYPE_NAME,
    DOUBLE,
    ENV_BACKEND,
    ENV_DTYPE,
    SINGLE,
    ArrayBackend,
    BackendUnavailableError,
    PrecisionPolicy,
    UnknownBackendError,
    available_backend_names,
    backend_names,
    default_backend_name,
    default_dtype_name,
    get_backend,
    get_default_backend,
    register_backend,
    release_backend,
    resolve_backend,
    resolve_precision,
    set_default_backend,
    shutdown_backends,
    unregister_backend,
    use_backend,
)
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.threaded import FFTPlan, ThreadedFFTBackend
from repro.backend.cupy_backend import CupyBackend

__all__ = [
    "ArrayBackend",
    "PrecisionPolicy",
    "DOUBLE",
    "SINGLE",
    "UnknownBackendError",
    "BackendUnavailableError",
    "register_backend",
    "unregister_backend",
    "release_backend",
    "shutdown_backends",
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
    "NumpyBackend",
    "ThreadedFFTBackend",
    "FFTPlan",
    "CupyBackend",
]
