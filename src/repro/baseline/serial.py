"""Serial maximum-likelihood reconstruction (Eq. (1)): one rank holding
the whole volume.

There is no serial sweep here.  The solver compiles the one-rank
schedule of a distributed solver and runs it on the same engine, in
process:

* ``scheme="batch"``: full-batch gradient descent — sum all individual
  gradients, one update per iteration.  That is gd
  ``mode="synchronous"`` on one rank with an exact halo.
* ``scheme="sgd"``: per-probe updates in raster order (PIE-flavoured),
  matching the local part of Alg. 1.  That is hve's local solve on one
  rank, which has no halo to exchange.

The independent hand-written sweep these equal bit for bit (volume,
history and probe) lives in the test suite as the oracle the engine is
checked against.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Optional, Sequence, Union

import numpy as np

from repro.baseline.halo_exchange import HaloExchangeReconstructor
from repro.core.observers import Observer
from repro.core.reconstructor import (
    GradientDecompositionReconstructor,
    ReconstructionResult,
    run_plan,
)
from repro.physics.dataset import PtychoDataset
from repro.runtime.options import RunOptions

__all__ = ["SerialReconstructor"]


class SerialReconstructor:
    """Single-volume gradient-descent solver.

    Parameters
    ----------
    iterations:
        Full sweeps over all probe locations.
    lr:
        Step size (same meaning as the distributed reconstructors).
    scheme:
        ``"batch"`` or ``"sgd"`` (see module docstring).
    refine_probe / probe_lr:
        Jointly refine the probe: probe gradients are summed over the
        sweep (each at the volume its position read) and applied once
        per iteration with step ``probe_lr`` (default ``0.5 / N``).
    options / **option_fields:
        The run options as one
        :class:`~repro.runtime.options.RunOptions` (documented there)
        and/or by keyword; keywords override ``options``.  Specific to
        this solver: its one rank always runs in process, so an explicit
        ``executor`` / ``runtime_workers`` is a ``TypeError``;
        ``batch_size > 1`` batches only the ``"batch"`` scheme's
        gradient sweep (``"sgd"`` changes the volume the next probe
        reads, so it always evaluates per position); ``positions`` are
        swept in index order; and with ``probe_modes > 1`` and
        ``refine_probe=True`` the per-mode gradient step is followed by
        an SVD re-orthogonalization each iteration.
    """

    #: The ``solver_params`` keys a config may set (the registry refuses
    #: any other with a ``SolverCapabilityError``): its one rank always
    #: runs in process, so the two placement options are not among them.
    accepted_params = RunOptions.names() - {
        "executor", "runtime_workers",
    } | {"iterations", "lr", "scheme", "refine_probe", "probe_lr"}

    def __init__(
        self,
        iterations: int = 10,
        lr: float = 0.5,
        scheme: str = "batch",
        refine_probe: bool = False,
        probe_lr: Optional[float] = None,
        options: Optional[RunOptions] = None,
        **option_fields,
    ) -> None:
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        if scheme not in ("batch", "sgd"):
            raise ValueError(f"unknown scheme {scheme!r}")
        if probe_lr is not None and probe_lr <= 0:
            raise ValueError("probe_lr must be positive")
        self.options = opts = RunOptions.of(options, **option_fields)
        if opts.executor is not None or opts.runtime_workers is not None:
            raise TypeError(
                "SerialReconstructor takes no executor / runtime_workers: "
                "its one rank runs in process, so there are no rank "
                "programs to place"
            )
        self.iterations = iterations
        self.lr = float(lr)
        self.scheme = scheme
        self.refine_probe = refine_probe
        self.probe_lr = probe_lr

    @property
    def solver(
        self,
    ) -> Union[GradientDecompositionReconstructor, HaloExchangeReconstructor]:
        """The distributed solver whose one-rank schedule
        :meth:`reconstruct` runs, built from the current fields."""
        one_rank: Dict[str, Any] = dict(
            n_ranks=1,
            iterations=self.iterations,
            lr=self.lr,
            refine_probe=self.refine_probe,
            probe_lr=self.probe_lr,
            options=replace(self.options, executor="serial"),
        )
        if self.scheme == "batch":
            return GradientDecompositionReconstructor(
                mode="synchronous", **one_rank
            )
        return HaloExchangeReconstructor(**one_rank)

    def reconstruct(
        self,
        dataset: PtychoDataset,
        initial_probe: Optional[np.ndarray] = None,
        initial_volume: Optional[np.ndarray] = None,
        *,
        observers: Sequence[Observer] = (),
    ) -> ReconstructionResult:
        """Run the reconstruction; see :class:`ReconstructionResult`.

        ``observers`` receive one structured
        :class:`~repro.core.observers.IterationEvent` per iteration.
        """
        plan = self.solver.plan(dataset, initial_probe, initial_volume)
        return run_plan("serial", plan, self.iterations, observers)

    def evaluate_cost(
        self, dataset: PtychoDataset, volume: np.ndarray
    ) -> float:
        """The true objective ``F(V)`` of Eq. (1) for an arbitrary volume
        (used to compare convergence across algorithms on equal footing)."""
        model = dataset.multislice_model(
            backend=self.options.backend, dtype=self.options.dtype
        )
        probe = dataset.probe.array
        total = 0.0
        for i, window in enumerate(dataset.scan.windows):
            sl = window.global_slices()
            total += model.cost_only(
                probe, volume[:, sl[0], sl[1]], dataset.amplitude(i)
            )
        return total
