"""The serial reference sweep: maximum-likelihood reconstruction
(Eq. (1)) on one volume, written by hand — the oracle the engine is
tested against.

:class:`repro.SerialReconstructor` runs a one-rank schedule on the
engine; :class:`SerialReference` is the same algorithm with none of the
engine's machinery (no schedule, no plan rows, no lockstep groups, no
communicator), so an equality between the two is evidence, not a
tautology.  Two update schemes:

* ``scheme="batch"``: full-batch gradient descent — sum all individual
  gradients, one update per iteration.  The gradient-decomposition
  reconstructor in synchronous mode must match this bit-for-bit at any
  rank count with exact halos — the strongest test in the suite.
* ``scheme="sgd"``: per-probe updates in raster order (PIE-flavoured),
  matching the local part of Alg. 1; hve on one rank matches it bit for
  bit.

Its memory ledger is its own: volume, gradient and measurements, with
no probe copy (the engine also charges each rank its probe, twice when
refining).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.backend.base import resolve_backend, resolve_precision
from repro.core.reconstructor import ReconstructionResult, run_session
from repro.core.decomposition import decompose_gradient
from repro.data import open_store, resolve_batch_size, resolve_positions
from repro.core.observers import Observer
from repro.physics.dataset import PtychoDataset
from repro.physics.probe import make_mode_stack, orthogonalize_modes
from repro.runtime.executor import ExecutionSession
from repro.runtime.options import RunOptions
from tests.reference.batching import BatchPlanner
from tests.reference.kernel import cost_and_gradient


class _SweepSession(ExecutionSession):
    """The reference sweep behind the session contract, so it runs on the
    shared driver loop (:func:`~repro.core.reconstructor.run_session`):
    one rank holding the whole volume, no traffic, ``step`` = one sweep
    plus update.  The sweeps stay :class:`SerialReference`'s own."""

    messages = 0
    message_bytes = 0

    def __init__(
        self,
        step: Callable[[], float],
        volume: np.ndarray,
        probe: Optional[np.ndarray],
        peak_bytes: int,
    ) -> None:
        self._step = step
        self._volume = volume
        self._probe = probe
        self._peak_bytes = peak_bytes

    def step(self) -> float:
        return self._step()

    def volumes(self) -> List[np.ndarray]:
        return [self._volume]

    def probe(self) -> Optional[np.ndarray]:
        return None if self._probe is None else self._probe.copy()

    @property
    def per_rank_peaks(self) -> List[int]:
        return [self._peak_bytes]


class SerialReference:
    """Single-volume gradient-descent solver, swept by hand.

    Parameters
    ----------
    iterations:
        Full sweeps over all probe locations.
    lr:
        Step size (same meaning as the distributed reconstructors).
    scheme:
        ``"batch"`` or ``"sgd"`` (see module docstring).
    options / **option_fields:
        The run options as one
        :class:`~repro.runtime.options.RunOptions` (documented there)
        and/or by keyword; keywords override ``options``.  Specific to
        this solver: there are no rank programs to place, so an explicit
        ``executor`` / ``runtime_workers`` is a ``TypeError``;
        ``batch_size > 1`` batches only the ``"batch"`` scheme's
        gradient sweep (``"sgd"`` changes the volume the next probe
        reads, so it always evaluates per position); ``positions`` are
        swept in index order; and with ``probe_modes > 1`` and
        ``refine_probe=True`` the per-mode gradient step is followed by
        an SVD re-orthogonalization each iteration, mirroring the
        distributed engine's ``OrthogonalizeProbe`` phase.
    """

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
                "SerialReference takes no executor / runtime_workers: "
                "it has no rank programs to place"
            )
        self.iterations = iterations
        self.lr = float(lr)
        self.scheme = scheme
        self.refine_probe = refine_probe
        self.probe_lr = probe_lr
        self.batch_size = resolve_batch_size(opts.batch_size)

    # ------------------------------------------------------------------
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
        options = self.options
        backend = resolve_backend(options.backend)
        precision = resolve_precision(options.dtype)
        cdtype = precision.complex_dtype
        model = dataset.multislice_model(backend=backend, dtype=precision)
        n_modes = options.probe_modes or 1
        scalar_shape = dataset.probe.array.shape
        if n_modes > 1:
            base = (
                np.asarray(initial_probe)
                if initial_probe is not None
                else dataset.probe.array
            )
            if base.ndim == 2:
                # Deterministic expansion — identical to the engine's.
                probe = np.asarray(
                    make_mode_stack(base, n_modes), dtype=cdtype
                )
            elif base.shape == (n_modes,) + scalar_shape:
                probe = np.asarray(base, dtype=cdtype).copy()
            else:
                raise ValueError(
                    f"initial probe shape {base.shape} != "
                    f"{(n_modes,) + scalar_shape} (or scalar "
                    f"{scalar_shape})"
                )
        else:
            arr = (
                np.asarray(initial_probe)
                if initial_probe is not None
                else dataset.probe.array
            )
            if arr.ndim == 3 and arr.shape == (1,) + scalar_shape:
                # Single-mode stacks squeeze to the scalar probe so M=1
                # stays bit-identical to the historical path.
                arr = arr[0]
            probe = np.asarray(arr, dtype=cdtype).copy()
        volume = (
            np.asarray(initial_volume, dtype=cdtype).copy()
            if initial_volume is not None
            else dataset.initial_object(dtype=precision)
        )
        gradient = np.zeros_like(volume)
        probe_gradient = np.zeros_like(probe)
        # Probe steps are preconditioned by |O| ~ 1 (not the probe
        # intensity), scaled down by the N-probe gradient sum.
        probe_step = (
            self.probe_lr
            if self.probe_lr is not None
            else 0.5 / max(dataset.n_probes, 1)
        )

        # A serial run is the 1-rank decomposition; report it as such so
        # downstream consumers (metrics, experiments) see a uniform shape.
        decomp = decompose_gradient(
            dataset.scan, dataset.object_shape, n_ranks=1, halo="exact"
        )
        store, owns_store = open_store(
            options.data_source, dataset=dataset, prefetch=options.prefetch
        )
        planner = BatchPlanner(self.batch_size)
        # Sweeps run in raster order over the active subset — the full
        # scan unless a positions restriction (streaming coverage
        # snapshot) narrows it.
        active = resolve_positions(options.positions, dataset.n_probes)
        indices = (
            tuple(range(dataset.n_probes))
            if active is None
            else tuple(sorted(active))
        )
        # In-memory stores account the full stack (the historical
        # number, byte for byte); out-of-core stores their chunk cache.
        peak_bytes = int(
            volume.nbytes
            + gradient.nbytes
            + store.shard_nbytes(indices)
        )

        windows = dataset.scan.windows
        # The "sgd" scheme updates the volume between probe reads, so
        # batching would change the algorithm; only the order-free
        # full-batch gradient sweep runs through the batched model.
        batched = self.scheme == "batch" and self.batch_size > 1

        def sweep_per_position() -> float:
            cost = 0.0
            for i in indices:
                sl = windows[i].global_slices()
                patch = volume[:, sl[0], sl[1]]
                result = cost_and_gradient(
                    model, probe, patch,
                    np.asarray(store.read(i), dtype=precision.real_dtype),
                    compute_probe_grad=self.refine_probe,
                )
                cost += result.cost
                if self.scheme == "batch":
                    gradient[:, sl[0], sl[1]] += result.object_grad
                else:
                    volume[:, sl[0], sl[1]] -= self.lr * result.object_grad
                if self.refine_probe and result.probe_grad is not None:
                    probe_gradient[...] += result.probe_grad
            return cost

        def sweep_batched() -> float:
            # Patch gathers, scatters and scalar accumulation stay in
            # probe order — bit-identical to the per-position sweep.
            cost = 0.0
            for chunk in planner.iter_batches(indices):
                patches = np.stack(
                    [
                        volume[
                            :,
                            windows[i].global_slices()[0],
                            windows[i].global_slices()[1],
                        ]
                        for i in chunk
                    ]
                )
                result = model.cost_and_gradient_batch(
                    probe,
                    patches,
                    np.asarray(
                        store.read_batch(chunk),
                        dtype=precision.real_dtype,
                    ),
                    compute_probe_grad=self.refine_probe,
                )
                for b, i in enumerate(chunk):
                    sl = windows[i].global_slices()
                    cost += float(result.costs[b])
                    gradient[:, sl[0], sl[1]] += result.object_grads[b]
                    if (
                        self.refine_probe
                        and result.probe_grads is not None
                    ):
                        if result.probe_grads.ndim == 4:
                            # Mixed-state stack (M, B, w, w).
                            probe_gradient[...] += result.probe_grads[:, b]
                        else:
                            probe_gradient[...] += result.probe_grads[b]
            return cost

        def step() -> float:
            nonlocal volume, probe  # ``-=`` rebinds; same arrays
            if self.scheme == "batch":
                gradient[...] = 0.0
            probe_gradient[...] = 0.0
            cost = sweep_batched() if batched else sweep_per_position()
            if self.scheme == "batch":
                volume -= self.lr * gradient
            if self.refine_probe:
                probe -= probe_step * probe_gradient
                if n_modes > 1:
                    # Per-sweep SVD relaxation, matching the
                    # engine's OrthogonalizeProbe phase.
                    probe[...] = orthogonalize_modes(probe)
            return cost

        session = _SweepSession(
            step, volume, probe if self.refine_probe else None, peak_bytes
        )
        if owns_store:
            session.close = store.close
        return run_session(
            "serial", session, dataset, decomp, self.iterations, observers
        )
