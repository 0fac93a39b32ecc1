"""Shared low-level utilities: rectangle geometry and FFT helpers.

These are the primitives everything else is built on.  ``Rect`` in
particular is the lingua franca of the decomposition code: tiles, halos,
probe windows and overlap regions are all axis-aligned rectangles in global
image coordinates.
"""

from repro.utils.geometry import Rect, intervals_overlap, union_rects
from repro.utils.fftutils import fft2c, ifft2c, fftfreq_grid

__all__ = [
    "Rect",
    "intervals_overlap",
    "union_rects",
    "fft2c",
    "ifft2c",
    "fftfreq_grid",
]
