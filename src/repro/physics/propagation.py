"""Fresnel free-space propagation between object slices.

The multislice method alternates transmission through a thin slice with
near-field propagation across the inter-slice spacing.  We use the
band-limited Fresnel propagator in the spatial-frequency domain:

``psi_out = IFFT( H(k) * FFT(psi_in) )`` with
``H(k) = exp(-i * pi * lambda * dz * |k|^2)``.

``H`` has unit modulus, so propagation is unitary — intensity is conserved
slice to slice, which the tests assert.  The operator's adjoint is
propagation with ``conj(H)``, used by the analytic gradient.

The transfer function is stored in the FFT-native layout
(``H~ = ifftshift(H)``, see :mod:`repro.utils.fftutils`), so a wave that
is already native propagates with two transforms and one in-place
multiply — :meth:`FresnelPropagator.forward_native`, the step the
multislice kernel calls.  The centred :meth:`~FresnelPropagator.forward`
/ :meth:`~FresnelPropagator.adjoint` are that step between one
permutation in and one out, which equals ``ifft2c(H * fft2c(x))``
bit for bit (permutations commute with elementwise arithmetic).
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.backend.base import (
    ArrayBackend,
    PrecisionPolicy,
    resolve_backend,
    resolve_precision,
)
from repro.utils.fftutils import (
    fft2u,
    fftfreq_grid,
    ifft2u,
    to_centred,
    to_native,
)

__all__ = ["FresnelPropagator"]


class FresnelPropagator:
    """Precomputed Fresnel propagator for a fixed field shape.

    Parameters
    ----------
    shape:
        ``(rows, cols)`` of the wavefield patch.
    pixel_size_pm:
        Real-space sampling in picometers.
    wavelength_pm:
        Electron wavelength in picometers.
    dz_pm:
        Propagation distance (slice spacing) in picometers.
    bandlimit:
        Fraction of the Nyquist band kept (2/3 by default, the standard
        multislice anti-aliasing choice).  Frequencies beyond the limit are
        zeroed, making the operator a contraction there; inside the band it
        is unitary.
    backend / dtype:
        Compute backend and precision policy (see :mod:`repro.backend`);
        ``None`` resolves the ambient defaults.  The kernel is stored at
        the policy's complex width; a field comes back at the width it
        went in with (``complex64`` stays ``complex64``).
    """

    def __init__(
        self,
        shape: Tuple[int, int],
        pixel_size_pm: float,
        wavelength_pm: float,
        dz_pm: float,
        bandlimit: float = 2.0 / 3.0,
        *,
        backend: Union[str, ArrayBackend, None] = None,
        dtype: Union[str, PrecisionPolicy, None] = None,
    ) -> None:
        if pixel_size_pm <= 0 or wavelength_pm <= 0:
            raise ValueError("pixel size and wavelength must be positive")
        if not (0.0 < bandlimit <= 1.0):
            raise ValueError(f"bandlimit must be in (0, 1], got {bandlimit}")
        self.shape = (int(shape[0]), int(shape[1]))
        self.pixel_size_pm = float(pixel_size_pm)
        self.wavelength_pm = float(wavelength_pm)
        self.dz_pm = float(dz_pm)
        self.bandlimit = float(bandlimit)
        self.backend = resolve_backend(backend)
        self.precision = resolve_precision(dtype)

        ky, kx = fftfreq_grid(self.shape, self.pixel_size_pm)
        k2 = ky * ky + kx * kx
        phase = -np.pi * self.wavelength_pm * self.dz_pm * k2
        kernel = np.exp(1j * phase)
        # Band limit: the classic 2/3 rule prevents aliasing of the
        # quadratic phase at the field corners.
        k_nyq = 0.5 / self.pixel_size_pm
        kernel[np.sqrt(k2) > self.bandlimit * k_nyq] = 0.0
        self._native = to_native(kernel.astype(self.precision.complex_dtype))
        self._native_conj = np.conj(self._native)

    @property
    def kernel(self) -> np.ndarray:
        """The centered frequency-domain transfer function (a copy)."""
        return to_centred(self._native)

    def _apply(self, kernel: np.ndarray, field: np.ndarray) -> np.ndarray:
        b = self.backend
        spectrum = fft2u(field, b)
        # In place, kernel first: the operand order of ``H * FFT(x)``.
        np.multiply(kernel, spectrum, out=spectrum)
        return ifft2u(spectrum, b)

    def forward_native(self, field: np.ndarray) -> np.ndarray:
        """Propagate a native-layout ``field`` forward by ``dz_pm``
        (native in, native out)."""
        return self._apply(self._native, field)

    def adjoint_native(self, field: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`forward_native`."""
        return self._apply(self._native_conj, field)

    def forward(self, field: np.ndarray) -> np.ndarray:
        """Propagate the centred ``field`` forward by ``dz_pm``."""
        return to_centred(self.forward_native(to_native(field)))

    def adjoint(self, field: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`forward` (= backward propagation for a unitary
        kernel); used when back-propagating gradients through slices."""
        return to_centred(self.adjoint_native(to_native(field)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FresnelPropagator(shape={self.shape}, dz={self.dz_pm} pm, "
            f"lambda={self.wavelength_pm:.4f} pm)"
        )
