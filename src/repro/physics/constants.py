"""Relativistic electron-optics constants.

The paper images PbTiO3 at 200 keV; the de Broglie wavelength at that
energy (2.508 pm) sets the diffraction-limited resolution that makes
10 pm voxels meaningful.  Formulas follow Kirkland, *Advanced Computing in
Electron Microscopy*, ch. 2.
"""

from __future__ import annotations

import math

__all__ = [
    "PLANCK_EV_S",
    "SPEED_OF_LIGHT_PM_S",
    "ELECTRON_REST_ENERGY_EV",
    "electron_wavelength_pm",
    "interaction_parameter",
]

#: Planck constant in eV*s.
PLANCK_EV_S = 4.135667696e-15

#: Speed of light in picometers per second.
SPEED_OF_LIGHT_PM_S = 2.99792458e20

#: Electron rest energy m0*c^2 in eV.
ELECTRON_REST_ENERGY_EV = 510_998.95


def electron_wavelength_pm(energy_ev: float) -> float:
    """Relativistic electron de Broglie wavelength in picometers.

    ``lambda = h*c / sqrt(E * (E + 2*m0c^2))`` with the beam energy ``E``
    in eV.  At 200 keV this returns ~2.508 pm, the textbook value.
    """
    if energy_ev <= 0:
        raise ValueError(f"beam energy must be positive, got {energy_ev}")
    return (PLANCK_EV_S * SPEED_OF_LIGHT_PM_S) / math.sqrt(
        energy_ev * (energy_ev + 2.0 * ELECTRON_REST_ENERGY_EV)
    )


def interaction_parameter(energy_ev: float) -> float:
    """Beam-specimen interaction parameter ``sigma`` in radians/(V*pm).

    ``sigma = 2*pi*gamma*m0*e*lambda / h^2`` expressed through measurable
    quantities as ``sigma = 2*pi / (lambda * E) * (m0c^2 + E)/(2*m0c^2 + E)``
    (Kirkland Eq. 5.6).  Used to convert a projected potential (V*pm) into
    a transmission-function phase.
    """
    lam = electron_wavelength_pm(energy_ev)
    m0c2 = ELECTRON_REST_ENERGY_EV
    return (
        (2.0 * math.pi)
        / (lam * energy_ev)
        * (m0c2 + energy_ev)
        / (2.0 * m0c2 + energy_ev)
    )
