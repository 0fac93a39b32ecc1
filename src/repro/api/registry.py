"""The solver registry: one namespace, one dispatch path.

Solvers register under a short name with :func:`register_solver`; every
entry point (``repro.reconstruct``, the CLI's ``--algorithm`` choices,
config files) resolves names through this module, so adding a solver —
first-party or third-party — requires no edits to any dispatch code::

    from repro.api import register_solver

    @register_solver("my-solver")
    class MySolver:
        accepted_params = frozenset({"iterations"})
        def __init__(self, iterations=10): ...
        def reconstruct(self, dataset, *, observers=(), initial_probe=None,
                        initial_volume=None): ...

A registered class implements the :class:`Solver` protocol and is
constructed from a config's ``solver_params`` mapping
(``cls(**params)``); ``accepted_params`` names the keys it takes (none
when absent), and :func:`solver_from_config` refuses any other with a
:class:`SolverCapabilityError`.  The three paper reconstructors are
registered as they are by :mod:`repro.api.solvers`.
"""

from __future__ import annotations

from dataclasses import fields
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Protocol,
    Type,
    runtime_checkable,
)

from repro.runtime.options import RunOptions, SolverCapabilityError

if TYPE_CHECKING:  # pragma: no cover
    from repro.api.config import ReconstructionConfig
    from repro.core.reconstructor import ReconstructionResult

__all__ = [
    "Solver",
    "UnknownSolverError",
    "SolverCapabilityError",
    "register_solver",
    "unregister_solver",
    "solver_names",
    "get_solver",
    "solver_from_config",
]


class UnknownSolverError(ValueError):
    """Raised when a solver name is not in the registry; the message
    always lists what *is* registered."""


@runtime_checkable
class Solver(Protocol):
    """Structural interface every registered solver satisfies."""

    def reconstruct(
        self,
        dataset,
        *,
        observers=(),
        initial_probe=None,
        initial_volume=None,
    ) -> "ReconstructionResult":
        """Run the reconstruction, emitting one
        :class:`~repro.core.observers.IterationEvent` per iteration to
        each observer."""
        ...


_REGISTRY: Dict[str, type] = {}


def register_solver(
    name: str, *, overwrite: bool = False
) -> Callable[[type], type]:
    """Class decorator registering a solver under ``name``.

    Re-registering an existing name raises unless ``overwrite=True`` (a
    deliberate escape hatch for third parties shadowing a built-in).
    The class gains a ``solver_name`` attribute set to ``name``.
    """
    if not isinstance(name, str) or not name:
        raise ValueError("solver name must be a non-empty string")

    def decorator(cls: type) -> type:
        if not callable(getattr(cls, "reconstruct", None)):
            raise TypeError(
                f"cannot register {cls.__name__!r}: solvers must define a "
                "reconstruct(dataset, *, observers=..., ...) method"
            )
        if name in _REGISTRY and not overwrite:
            raise ValueError(
                f"solver {name!r} is already registered "
                f"(by {_REGISTRY[name].__name__}); pass overwrite=True to replace"
            )
        cls.solver_name = name
        _REGISTRY[name] = cls
        return cls

    return decorator


def unregister_solver(name: str) -> None:
    """Remove a registration (mainly for tests and plugin teardown)."""
    if name not in _REGISTRY:
        raise UnknownSolverError(_unknown_message(name))
    del _REGISTRY[name]


def solver_names() -> List[str]:
    """Sorted names of all registered solvers."""
    return sorted(_REGISTRY)


def get_solver(name: str) -> Type:
    """The solver class registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownSolverError(_unknown_message(name)) from None


def solver_from_config(config: "ReconstructionConfig") -> Solver:
    """Instantiate the solver a config names, with its ``solver_params``.

    A ``solver_params`` key outside the solver's ``accepted_params`` is a
    :class:`SolverCapabilityError`.  The config fields that are run
    options (the :class:`~repro.runtime.options.RunOptions` names) are
    injected as constructor parameters for solvers that declare them in
    ``accepted_params``.  ``None`` fields
    (ambient resolution) inject nothing, so solvers without the
    parameters still run on the ambient defaults — but *pinning* a
    backend, precision or executor on a solver that cannot honour it is
    a :class:`SolverCapabilityError`, never a silent drop.
    """
    cls = get_solver(config.solver)
    params = dict(config.solver_params)
    accepted = getattr(cls, "accepted_params", frozenset())
    unknown = set(params) - set(accepted)
    if unknown:
        raise SolverCapabilityError(
            f"solver {config.solver!r} does not accept parameter(s) "
            f"{sorted(unknown)}; accepted: {sorted(accepted)}"
        )
    for option in fields(RunOptions):
        key = option.name
        # ``positions`` has no config field: it is solver_params-only.
        value = getattr(config, key, None)
        if key in params:
            # The solver_params spelling (direct class use) must not
            # contradict the config field.
            if value is not None and params[key] != value:
                raise ValueError(
                    f"config names {key}={value!r} but solver_params "
                    f"also sets {key}={params[key]!r}; use the config "
                    f"field only"
                )
            continue
        if value is None:
            continue
        if key in accepted:
            params[key] = value
        else:
            raise SolverCapabilityError(
                f"solver {config.solver!r} does not accept a "
                f"{key} (asked for {key}={value!r}); declare {key!r} in "
                f"its accepted_params to opt in"
            )
    return cls(**params)


def _unknown_message(name: str) -> str:
    registered = ", ".join(solver_names()) or "(none)"
    return f"unknown solver {name!r}; registered solvers: {registered}"
