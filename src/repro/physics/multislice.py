"""The multislice forward operator ``G`` of Eq. (1) and its adjoint.

Forward model for probe location ``i`` (probe ``p``, object slices ``O_s``
restricted to the probe window ``W_i``):

.. code-block:: text

    psi_0   = p
    phi_s   = psi_s * O_s[W_i]          (transmission, s = 0..S-1)
    psi_s+1 = Fresnel(phi_s)            (propagation, s < S-1)
    Psi     = FFT(phi_{S-1})            (far-field to the detector)

The data-fit term is the amplitude residual of Eq. (1):
``f_i = sum_k ( |y_i|_k - |Psi|_k )^2``.

The *individual image gradient* ``df_i/dO`` is obtained by the adjoint
(back-propagation) recursion and — crucially for the paper's decomposition
— is supported entirely inside the probe window ``W_i``:

.. code-block:: text

    r       = (|Psi| - |y_i|) * Psi / |Psi|
    chi_S-1 = IFFT(r)
    grad_s  = conj(psi_s) * chi_s
    chi_s-1 = Fresnel_adjoint( conj(O_s) * chi_s )

Wirtinger-calculus convention: we return ``df/d(conj O)``, the direction of
steepest *ascent*, so a descent step is ``O <- O - alpha * grad``.  All the
gradients are verified against numerical finite differences in the tests.

Mixed-state probes
------------------
Every entry point also accepts an ``(M, w, w)`` *mode stack* (see
:mod:`repro.physics.probe`): the measured intensity is then the
incoherent sum over modes, ``A = sqrt(sum_m |Psi_m|^2)``, the standard
partially-coherent treatment.  The per-mode detector adjoint seed is
``(A - y) * Psi_m / A`` (structurally the scalar formula at M=1), the
object gradient sums the per-mode contributions, and probe gradients
stay per-mode.

One kernel, in the FFT-native layout
------------------------------------
There is one forward and one adjoint sweep, over an ``(M, B, w, w)``
stack (``M`` probe modes x ``B`` probe locations; a scalar evaluation is
the ``M = B = 1`` view).  Callers pass and receive *centred* arrays;
inside, everything is *FFT-native*, ``x~ = ifftshift(x)``: probe, patch
stack and measured amplitudes are permuted once on entry (the probe
once per caller instead, when it passes ``native_probe=``), each slice is
``psi~ <- ifft2(H~ * fft2(psi~ * O~_s))`` with the propagator's
pre-permuted ``H~``, residual and adjoint seed are formed in the same
layout, and the gradient stack is permuted back once on exit.  That is
*bitwise* the recursion above written with ``fft2c``/``ifft2c`` — for
every window, even or odd (see :mod:`repro.utils.fftutils`) — without
the shift pair around each of its ``4S - 2`` transforms.  Two steps see
more than elementwise values:

* **The cost is summed in centred order.**  ``np.sum`` adds pairwise, so
  its rounding depends on element order: the squared residual is
  permuted back first, or cost histories would change in their last bits.
* **M = 1 is the only dispatch.**  ``np.abs`` (hypot) is not bitwise
  ``sqrt(re^2 + im^2)`` and a one-term ``np.sum`` turns ``-0.0`` into
  ``+0.0``, so a 2-D probe or single-mode stack takes ``np.abs`` and
  skips the mode sum: ``probe_modes=1`` is bitwise the scalar formulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.backend.base import (
    ArrayBackend,
    PrecisionPolicy,
    resolve_backend,
    resolve_precision,
)
from repro.physics.probe import as_mode_stack
from repro.physics.propagation import FresnelPropagator
from repro.utils.fftutils import fft2u, ifft2u, to_centred, to_native

__all__ = ["MultisliceModel", "BatchGradientResult"]

#: Guard against division by zero where the simulated amplitude vanishes.
_AMPLITUDE_EPS = 1e-12


@dataclass
class BatchGradientResult:
    """Output of one *batched* gradient evaluation (``B`` probe
    locations through the multislice sweep as one stack).

    Per-item values are bit-identical to ``B`` separate calls at
    ``B = 1``: pocketfft applies the same 2-D kernels along a batch
    axis, and every other step is elementwise — which is what lets
    batched execution stay fingerprint-identical to the per-position
    reference (pinned by the parity suite in ``tests/data``).

    Attributes
    ----------
    object_grads:
        ``(B, n_slices, window, window)`` individual image gradients.
    costs:
        ``(B,)`` float64 data-fit values, one per probe location.
    probe_grads:
        Per-location probe gradients, populated when probe refinement is
        requested: ``(B, window, window)`` for a scalar probe,
        ``(M, B, window, window)`` for a mode stack (item ``b`` is
        ``probe_grads[:, b]``).
    """

    object_grads: np.ndarray
    costs: np.ndarray
    probe_grads: Optional[np.ndarray] = None


class MultisliceModel:
    """Multislice simulator bound to a fixed probe-window geometry.

    One instance is shared by all probe locations of a reconstruction
    (the propagator kernel depends only on the patch shape and slice
    spacing, both constant across the scan).

    Parameters
    ----------
    window:
        Probe patch side length in pixels (= detector side length).
    n_slices:
        Number of object slices.
    pixel_size_pm, wavelength_pm, slice_thickness_pm:
        Physical sampling; see :class:`repro.physics.propagation.FresnelPropagator`.
    backend / dtype:
        Compute backend and precision policy (see :mod:`repro.backend`);
        ``None`` resolves the ambient defaults.  All per-probe work —
        the forward sweep, the retained incident waves, the adjoint
        recursion — runs at the policy's complex width on the chosen
        backend; the default (``numpy``/``complex128``) is bit-identical
        to the historical hard-wired behaviour.
    """

    def __init__(
        self,
        window: int,
        n_slices: int,
        pixel_size_pm: float,
        wavelength_pm: float,
        slice_thickness_pm: float,
        *,
        backend: Union[str, ArrayBackend, None] = None,
        dtype: Union[str, PrecisionPolicy, None] = None,
    ) -> None:
        if window <= 0 or n_slices <= 0:
            raise ValueError("window and n_slices must be positive")
        self.window = int(window)
        self.n_slices = int(n_slices)
        self.pixel_size_pm = float(pixel_size_pm)
        self.wavelength_pm = float(wavelength_pm)
        self.slice_thickness_pm = float(slice_thickness_pm)
        self.backend = resolve_backend(backend)
        self.precision = resolve_precision(dtype)
        self._prop = FresnelPropagator(
            (self.window, self.window),
            pixel_size_pm,
            wavelength_pm,
            slice_thickness_pm,
            backend=self.backend,
            dtype=self.precision,
        )

    @property
    def propagator(self) -> FresnelPropagator:
        """The inter-slice Fresnel propagator."""
        return self._prop

    # -- the kernel: (M, B, w, w) stacks in the FFT-native layout --------
    def native_probe(self, probe: np.ndarray) -> np.ndarray:
        """A centred probe (or mode stack) as the kernel's FFT-native
        ``(M, w, w)`` stack at compute precision — what a caller that
        evaluates one probe many times passes as ``native_probe=``."""
        cdtype = self.precision.complex_dtype
        return to_native(as_mode_stack(np.asarray(probe, dtype=cdtype)))

    def _far_field(
        self,
        probe: np.ndarray,
        patches: np.ndarray,
        native_probe: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
        """Forward sweep of a centred ``(B, S, w, w)`` patch stack under
        a centred probe (or its given :meth:`native_probe` form).
        Returns, all native: the ``(M, B, w, w)`` far field, the patch
        stack, and the wave incident on each slice (references to the
        sweep's own arrays, not copies)."""
        cdtype = self.precision.complex_dtype
        modes = (
            self.native_probe(probe) if native_probe is None else native_probe
        )
        stack = (self.n_slices, self.window, self.window)
        if modes.shape[1:] != stack[1:]:
            raise ValueError(
                f"probe shape {modes.shape} != (M,) + {stack[1:]}"
            )
        if np.ndim(patches) != 4 or patches.shape[1:] != stack:
            raise ValueError(
                f"object patches shape {np.shape(patches)} != (B,) + {stack}"
            )
        psi = modes[:, None]  # (M, 1, w, w): broadcasts over B
        # The permutation doubles as the contiguous copy the sweep wants.
        obj = to_native(np.asarray(patches, dtype=cdtype))
        incident = []
        for s in range(self.n_slices):
            incident.append(psi)
            psi = psi * obj[:, s]
            if s < self.n_slices - 1:
                psi = self._prop.forward_native(psi)
        return fft2u(psi, self.backend), obj, incident

    @staticmethod
    def _amplitude(far_field: np.ndarray) -> np.ndarray:
        """``(B, w, w)`` detector amplitude of an ``(M, B, w, w)`` far
        field: ``np.abs`` at one mode, the incoherent sum otherwise."""
        if far_field.shape[0] == 1:
            return np.abs(far_field[0])
        re, im = far_field.real, far_field.imag
        return np.sqrt(np.sum(re * re + im * im, axis=0))

    def _data_fit(
        self, amplitude: np.ndarray, measured: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The native residual ``|Psi| - |y|`` against centred measured
        amplitudes, and the ``(B,)`` costs: accumulated in float64
        whatever the policy, over the residual in *centred* order."""
        if np.shape(measured) != amplitude.shape:
            raise ValueError(
                f"measurement shape {np.shape(measured)} != {amplitude.shape}"
            )
        residual = amplitude - to_native(
            np.asarray(measured, dtype=self.precision.real_dtype)
        )
        costs = np.sum(
            to_centred(residual * residual), axis=(-2, -1), dtype=np.float64
        )
        return residual, costs

    # -- public entry points: centred in, centred out --------------------
    def forward(
        self, probe: np.ndarray, object_patch: np.ndarray
    ) -> np.ndarray:
        """Simulate the far-field complex wave ``Psi = G(p, O[W])``.

        Parameters
        ----------
        probe:
            ``(window, window)`` complex probe, or an ``(M, window,
            window)`` mode stack — the far field is then per-mode,
            ``(M, window, window)``.
        object_patch:
            ``(n_slices, window, window)`` complex transmission patch.
        """
        far_field = self._far_field(probe, object_patch[None])[0]
        far_field = to_centred(far_field[:, 0])
        return far_field if np.ndim(probe) == 3 else far_field[0]

    def forward_amplitude(
        self, probe: np.ndarray, object_patch: np.ndarray
    ) -> np.ndarray:
        """``|G(p, O[W])|`` — the quantity compared against ``|y_i|``.

        For a mode stack this is the incoherent detector amplitude
        ``sqrt(sum_m |Psi_m|^2)`` (shape ``(window, window)``).
        """
        far_field = self._far_field(probe, object_patch[None])[0]
        return to_centred(self._amplitude(far_field)[0])

    def cost_only(
        self,
        probe: np.ndarray,
        object_patch: np.ndarray,
        measured_amplitude: np.ndarray,
    ) -> float:
        """Just the data-fit value ``f_i`` (used for convergence curves):
        bitwise the cost :meth:`cost_and_gradient_batch` returns for it."""
        far_field = self._far_field(probe, object_patch[None])[0]
        amplitude = self._amplitude(far_field)
        _, costs = self._data_fit(amplitude, measured_amplitude[None])
        return float(costs[0])

    def cost_and_gradient_batch(
        self,
        probe: np.ndarray,
        object_patches: np.ndarray,
        measured_amplitudes: np.ndarray,
        compute_probe_grad: bool = False,
        *,
        native_probe: Optional[np.ndarray] = None,
    ) -> BatchGradientResult:
        """Evaluate ``B`` probe locations as one batched sweep — the one
        gradient entry point; a single location is the ``B = 1`` stack.

        ``object_patches`` is ``(B, n_slices, window, window)`` and
        ``measured_amplitudes`` ``(B, window, window)``; every FFT runs
        once over the whole ``(M, B, window, window)`` stack — the
        batched hot path the data pipeline exists to exploit.  Accepts
        non-contiguous inputs (gathered patch stacks, strided store
        reads); the layout permutation is the only copy.  The incident
        waves ``psi_s`` are retained from the forward sweep (O(S) memory
        in patches), the standard checkpoint-free adjoint.  A mixed-state
        ``(M, window, window)`` probe runs the incoherent formulation
        (per-mode probe gradients); a single-mode stack is bit for bit
        the scalar evaluation.

        ``native_probe`` (internal, for callers that evaluate one probe
        over many calls, such as the engine's sweeps) is
        :meth:`native_probe` of ``probe``, permuted once by the caller;
        the kernel then skips its own probe permutation and ``probe``
        only decides the probe-gradient shape.  Results are bitwise
        those without it.
        """
        far_field, obj, incident = self._far_field(
            probe, object_patches, native_probe
        )
        amplitude = self._amplitude(far_field)
        residual, costs = self._data_fit(amplitude, measured_amplitudes)

        # Detector-plane adjoint seed d f / d conj(Psi_m), built in the
        # temporaries it consumes (operands in formula order).
        amplitude += _AMPLITUDE_EPS
        seed = np.divide(far_field, amplitude)
        chi = ifft2u(np.multiply(residual, seed, out=seed), self.backend)
        single = far_field.shape[0] == 1
        grads = np.empty_like(obj)
        for s in range(self.n_slices - 1, -1, -1):
            if single:
                np.multiply(np.conj(incident[s][0]), chi[0], out=grads[:, s])
            else:
                # The object is shared: mode contributions add.
                grads[:, s] = np.sum(np.conj(incident[s]) * chi, axis=0)
            if s > 0:
                chi = self._prop.adjoint_native(
                    np.multiply(np.conj(obj[:, s]), chi, out=chi)
                )
        probe_grads = None
        if compute_probe_grad:
            # d f / d conj(p): one more chain step through slice 0.
            probe_grads = to_centred(np.conj(obj[:, 0]) * chi)
            if np.ndim(probe) != 3:
                probe_grads = probe_grads[0]
        return BatchGradientResult(to_centred(grads), costs, probe_grads)

    def flops_per_probe(self) -> float:
        """Modeled floating-point work of one cost+gradient evaluation:
        :func:`repro.perfmodel.cost_model.multislice_flops` for this
        geometry (imported here — ``perfmodel`` itself imports physics)."""
        from repro.perfmodel.cost_model import multislice_flops

        return multislice_flops(self.window, self.n_slices)

