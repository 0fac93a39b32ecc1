"""The scalar multislice entry point: one probe location, one result.

The program has one gradient entry point,
:meth:`~repro.physics.multislice.MultisliceModel.cost_and_gradient_batch`;
a single location is its ``B = 1`` stack.  The physics tests and the
serial reference sweep (:mod:`tests.reference.serial`) speak per
location, so this module unpacks that stack into a
:class:`GradientResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.physics.multislice import MultisliceModel


@dataclass
class GradientResult:
    """Output of one probe-location gradient evaluation.

    Attributes
    ----------
    object_grad:
        ``(n_slices, window, window)`` complex array: the individual image
        gradient ``df_i/d(conj O)`` restricted to the probe window (for a
        mode stack, summed over modes — the object is shared).
    cost:
        The scalar data-fit value ``f_i``.
    exit_amplitude:
        ``|Psi|`` at the detector, when requested; the incoherent
        amplitude for a mode stack.
    probe_grad:
        ``df_i/d(conj p)`` when requested.  Shape follows the probe:
        ``(window, window)`` for a scalar probe, ``(M, window, window)``
        for a mode stack.
    """

    object_grad: np.ndarray
    cost: float
    exit_amplitude: Optional[np.ndarray] = None
    probe_grad: Optional[np.ndarray] = None


def cost_and_gradient(
    model: MultisliceModel,
    probe: np.ndarray,
    object_patch: np.ndarray,
    measured_amplitude: np.ndarray,
    keep_exit_wave: bool = False,
    compute_probe_grad: bool = False,
) -> GradientResult:
    """``f_i`` and its gradient at one location: the batched kernel at
    ``B = 1``, item 0.  A single-mode stack is bit for bit the scalar
    evaluation."""
    batch = model.cost_and_gradient_batch(
        probe, object_patch[None], measured_amplitude[None],
        compute_probe_grad,
    )
    result = GradientResult(
        object_grad=batch.object_grads[0], cost=float(batch.costs[0])
    )
    if keep_exit_wave:
        result.exit_amplitude = model.forward_amplitude(probe, object_patch)
    if batch.probe_grads is not None:
        stacked = np.ndim(probe) == 3
        result.probe_grad = (
            batch.probe_grads[:, 0] if stacked else batch.probe_grads[0]
        )
    return result


def probe_gradient(
    model: MultisliceModel,
    probe: np.ndarray,
    object_patch: np.ndarray,
    measured_amplitude: np.ndarray,
) -> np.ndarray:
    """Gradient of ``f_i`` with respect to ``conj(p)``."""
    result = cost_and_gradient(
        model, probe, object_patch, measured_amplitude,
        compute_probe_grad=True,
    )
    assert result.probe_grad is not None
    return result.probe_grad
