"""Unitary FFT helpers — a thin dispatch onto the active compute
backend.

All transforms in the library use the ``norm="ortho"`` convention so the
adjoint of the forward FFT is exactly the inverse FFT — the property the
analytic multislice gradient relies on.  Two layouts are offered:

* ``fft2u``/``ifft2u`` — *FFT-native*: real-space origin and zero
  frequency at index ``[0, 0]``.  One backend transform, nothing else;
  the multislice kernel carries this layout from slice to slice.
* ``fft2c``/``ifft2c`` — *centred* (detector convention): zero
  frequency at the array centre, i.e. ``to_centred(fft2u(to_native(x)))``.

``to_native`` (``ifftshift``) and ``to_centred`` (``fftshift``) are
exact inverses for every length, and a permutation commutes bit-for-bit
with elementwise arithmetic, so code that stays in the native layout
between transforms reproduces the centred formulation exactly.  Each is
one ``take`` over the flattened last two axes, with the plane's index
cached per ``(h, w, direction)``: the elements ``np.fft``'s shifts
move, in one pass instead of a roll per axis, into a fresh C-contiguous
array.

Execution (which FFT library, how many workers) belongs to
:mod:`repro.backend`: pass ``backend=`` explicitly, or leave it ``None``
for ambient resolution (``REPRO_BACKEND`` environment variable, else the
``numpy`` default).  Every helper preserves precision: ``complex64`` in,
``complex64`` out.
"""

from __future__ import annotations

import functools
import time
from typing import Tuple, Union

import numpy as np

from repro.backend.base import ArrayBackend, resolve_backend
from repro.obs import telemetry as _obs

__all__ = [
    "fft2u",
    "ifft2u",
    "to_native",
    "to_centred",
    "fft2c",
    "ifft2c",
    "fftfreq_grid",
]

_BackendSpec = Union[str, ArrayBackend, None]


def _count_fft(tel, kind: str, backend_name: str, shape, dt: float) -> None:
    """Accumulate one transform into the active recorder: total count
    and seconds, the per-backend split, and a batch-shape histogram.
    All leading axes count as batch (a mixed-state ``(M, B, w, w)``
    sweep is ``M*B`` planes per call)."""
    batch = 1
    for n in shape[:-2]:
        batch *= int(n)
    tel.add(
        {
            "fft.calls": 1,
            "fft.seconds": dt,
            f"fft.{kind}.calls": 1,
            f"fft.{backend_name}.calls": 1,
            f"fft.{backend_name}.seconds": dt,
            f"fft.batch[{batch}x{shape[-2]}x{shape[-1]}].calls": 1,
        }
    )


def _unitary(transform, kind: str, backend_name: str, field: np.ndarray):
    """Run one backend transform with ``norm="ortho"`` — passed
    explicitly: unitarity is *this* module's invariant, never delegated
    to a backend's default — and account it when a recorder is active."""
    tel = _obs.current()
    if not tel.enabled:
        return transform(field, norm="ortho")
    t0 = time.perf_counter()
    out = transform(field, norm="ortho")
    _count_fft(tel, kind, backend_name, field.shape, time.perf_counter() - t0)
    return out


def fft2u(field: np.ndarray, backend: _BackendSpec = None) -> np.ndarray:
    """Uncentred unitary 2-D FFT over the last two axes: real-space
    origin and zero frequency at index ``[0, 0]`` (the FFT-native
    layout).  Executed by ``backend`` (ambient default when ``None``);
    output precision matches input precision."""
    b = resolve_backend(backend)
    return _unitary(b.fft2, "fft2", b.name, field)


def ifft2u(field: np.ndarray, backend: _BackendSpec = None) -> np.ndarray:
    """Uncentred unitary 2-D inverse FFT (adjoint of :func:`fft2u`)."""
    b = resolve_backend(backend)
    return _unitary(b.ifft2, "ifft2", b.name, field)


@functools.cache
def _permutation(h: int, w: int, centred: bool) -> np.ndarray:
    """Flat source index of each output pixel of ``ifftshift``
    (``centred=False``) or ``fftshift`` over an ``(h, w)`` plane;
    read-only, as every caller shares it."""
    shift_h, shift_w = (-(h // 2), -(w // 2)) if centred else (h // 2, w // 2)
    rows = (np.arange(h) + shift_h) % h
    cols = (np.arange(w) + shift_w) % w
    index = (rows[:, None] * w + cols[None, :]).ravel()
    index.flags.writeable = False
    return index


def _permute(field: np.ndarray, centred: bool) -> np.ndarray:
    """Apply :func:`_permutation` to the last two axes: one ``take``
    over the flattened plane, into a fresh C-contiguous array."""
    *lead, h, w = field.shape
    flat = field.reshape(*lead, h * w)
    return flat.take(_permutation(h, w, centred), axis=-1).reshape(
        field.shape
    )


def to_native(field: np.ndarray) -> np.ndarray:
    """Permute the last two axes from the centred to the FFT-native
    layout (``ifftshift``); always a fresh C-contiguous array."""
    return _permute(field, False)


def to_centred(field: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_native` (``fftshift``) — exactly, for every
    length, even or odd."""
    return _permute(field, True)


def fft2c(field: np.ndarray, backend: _BackendSpec = None) -> np.ndarray:
    """Centered unitary 2-D FFT over the last two axes.

    Input and output have the zero frequency / real-space origin at the
    array center, matching how a detector image is displayed.
    """
    return to_centred(fft2u(to_native(field), backend))


def ifft2c(field: np.ndarray, backend: _BackendSpec = None) -> np.ndarray:
    """Centered unitary 2-D inverse FFT over the last two axes (adjoint
    of :func:`fft2c`)."""
    return to_centred(ifft2u(to_native(field), backend))


def fftfreq_grid(
    shape: Tuple[int, int], pixel_size: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Spatial-frequency coordinate grids for a centered FFT.

    Parameters
    ----------
    shape:
        ``(rows, cols)`` of the field.
    pixel_size:
        Real-space sampling in the same length unit used elsewhere
        (this library uses picometers throughout).

    Returns
    -------
    (ky, kx):
        2-D arrays (broadcast from 1-D) of spatial frequency in cycles per
        length unit, fftshifted so frequency zero sits at the array center.
    """
    rows, cols = shape
    ky = np.fft.fftshift(np.fft.fftfreq(rows, d=pixel_size))
    kx = np.fft.fftshift(np.fft.fftfreq(cols, d=pixel_size))
    return ky[:, None], kx[None, :]
