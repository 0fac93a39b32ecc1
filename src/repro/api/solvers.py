"""Registry adapters for the three paper solvers.

Each adapter is a thin, uniform facade over one reconstructor class:

* it validates ``solver_params`` against an explicit ``accepted_params``
  set, so a config naming a parameter the solver cannot honour fails
  with a :class:`~repro.api.registry.SolverCapabilityError` instead of a
  bare ``TypeError`` (or, worse, the historical CLI behaviour of
  silently dropping the flag);
* it converts JSON spellings into constructor objects (``"mesh":
  [rows, cols]`` becomes a :class:`~repro.parallel.topology.MeshLayout`);
* it normalizes the ``reconstruct`` signature to the
  :class:`~repro.api.registry.Solver` protocol — the halo-exchange
  baseline, for instance, rejects ``initial_probe`` explicitly rather
  than not having the keyword.

Attribute access falls through to the wrapped reconstructor, so
solver-specific extras (``build_iteration_schedule``,
``redundancy_factor``, ...) remain reachable on the adapter.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Optional, Sequence

import numpy as np

from repro.api.registry import SolverCapabilityError, register_solver
from repro.baseline.halo_exchange import HaloExchangeReconstructor
from repro.baseline.serial import SerialReconstructor
from repro.core.observers import Observer
from repro.core.reconstructor import (
    GradientDecompositionReconstructor,
    ReconstructionResult,
)
from repro.parallel.topology import MeshLayout
from repro.physics.dataset import PtychoDataset
from repro.runtime.options import RunOptions

__all__ = [
    "SolverAdapter",
    "GradientDecompositionSolver",
    "HaloExchangeSolver",
    "SerialSolver",
]


def _mesh_from_json(value: Any) -> MeshLayout:
    """``[rows, cols]`` (the JSON spelling) or a MeshLayout passthrough."""
    if isinstance(value, MeshLayout):
        return value
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(v, int) for v in value)
    ):
        return MeshLayout(value[0], value[1])
    raise SolverCapabilityError(
        f"mesh must be [rows, cols] (two ints), got {value!r}"
    )


class SolverAdapter:
    """Base class for registry adapters (see module docstring).

    Subclasses set ``accepted_params`` and implement ``_build``; the
    registry decorator supplies ``solver_name``.
    """

    solver_name: str = ""
    accepted_params: FrozenSet[str] = frozenset()

    def __init__(self, **params: Any) -> None:
        unknown = set(params) - set(self.accepted_params)
        if unknown:
            raise SolverCapabilityError(
                f"solver {self.solver_name!r} does not accept parameter(s) "
                f"{sorted(unknown)}; accepted: {sorted(self.accepted_params)}"
            )
        self.params: Dict[str, Any] = dict(params)
        self.inner = self._build(dict(params))

    def _build(self, params: Dict[str, Any]):
        raise NotImplementedError

    def __getattr__(self, attr: str) -> Any:
        # Fall through to the wrapped reconstructor — but never recurse
        # while ``inner`` itself is still unset (mid-__init__ failures).
        if attr == "inner":
            raise AttributeError(attr)
        return getattr(self.inner, attr)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        args = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return f"{type(self).__name__}({args})"


@register_solver("gd")
class GradientDecompositionSolver(SolverAdapter):
    """The paper's Algorithm 1 (gradient decomposition), adapted."""

    accepted_params = frozenset(
        {
            "n_ranks",
            "mesh",
            "iterations",
            "lr",
            "mode",
            "sync_period",
            "planner",
            "halo",
            "compensate_local",
            "refine_probe",
            "probe_lr",
        }
    ) | RunOptions.names()

    def _build(self, params: Dict[str, Any]) -> GradientDecompositionReconstructor:
        if "mesh" in params:
            params["mesh"] = _mesh_from_json(params["mesh"])
        else:
            # A config that names neither a mesh nor a rank count gets the
            # same small-cluster default the CLI has always used.
            params.setdefault("n_ranks", 4)
        return GradientDecompositionReconstructor(**params)

    def reconstruct(
        self,
        dataset: PtychoDataset,
        *,
        observers: Sequence[Observer] = (),
        initial_probe: Optional[np.ndarray] = None,
        initial_volume: Optional[np.ndarray] = None,
    ) -> ReconstructionResult:
        return self.inner.reconstruct(
            dataset,
            observers=observers,
            initial_probe=initial_probe,
            initial_volume=initial_volume,
        )


@register_solver("hve")
class HaloExchangeSolver(SolverAdapter):
    """The halo-voxel-exchange baseline (paper Sec. II-C), adapted."""

    accepted_params = frozenset(
        {
            "n_ranks",
            "mesh",
            "iterations",
            "lr",
            "extra_rows",
            "halo",
            "inner_sweeps",
            "enforce_tile_constraint",
        }
    ) | RunOptions.names()

    def _build(self, params: Dict[str, Any]) -> HaloExchangeReconstructor:
        if "mesh" in params:
            params["mesh"] = _mesh_from_json(params["mesh"])
        else:
            params.setdefault("n_ranks", 4)
        return HaloExchangeReconstructor(**params)

    def reconstruct(
        self,
        dataset: PtychoDataset,
        *,
        observers: Sequence[Observer] = (),
        initial_probe: Optional[np.ndarray] = None,
        initial_volume: Optional[np.ndarray] = None,
    ) -> ReconstructionResult:
        if initial_probe is not None:
            raise SolverCapabilityError(
                "solver 'hve' does not support initial_probe: the "
                "halo-exchange baseline does not refine the probe"
            )
        return self.inner.reconstruct(
            dataset, observers=observers, initial_volume=initial_volume
        )


@register_solver("serial")
class SerialSolver(SolverAdapter):
    """The single-volume solver (a one-rank gd or hve schedule), adapted."""

    #: Its one rank always runs in process: the two placement options
    #: are refused.
    accepted_params = frozenset(
        {"iterations", "lr", "scheme", "refine_probe", "probe_lr"}
    ) | (RunOptions.names() - {"executor", "runtime_workers"})

    def _build(self, params: Dict[str, Any]) -> SerialReconstructor:
        return SerialReconstructor(**params)

    def reconstruct(
        self,
        dataset: PtychoDataset,
        *,
        observers: Sequence[Observer] = (),
        initial_probe: Optional[np.ndarray] = None,
        initial_volume: Optional[np.ndarray] = None,
    ) -> ReconstructionResult:
        return self.inner.reconstruct(
            dataset,
            observers=observers,
            initial_probe=initial_probe,
            initial_volume=initial_volume,
        )
