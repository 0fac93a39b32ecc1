"""Electron-ptychography physics substrate.

Everything the reconstruction algorithms need from the physical world:

* :mod:`repro.physics.constants` — relativistic electron optics constants.
* :mod:`repro.physics.probe` — focused probe formation (aperture, defocus).
* :mod:`repro.physics.propagation` — Fresnel free-space propagation.
* :mod:`repro.physics.potential` — synthetic PbTiO3 specimen generator.
* :mod:`repro.physics.scan` — raster scan patterns with overlap control.
* :mod:`repro.physics.multislice` — the forward operator ``G`` of Eq. (1)
  and its adjoint (the analytic image gradient).
* :mod:`repro.physics.dataset` — end-to-end diffraction dataset simulation.

All lengths are in **picometers** (the paper quotes 10x10x125 pm^3 voxels),
all angles in radians, all energies in electron-volts.
"""

from repro.physics.constants import (
    electron_wavelength_pm,
    interaction_parameter,
)
from repro.physics.probe import Probe, ProbeSpec, make_probe
from repro.physics.propagation import FresnelPropagator
from repro.physics.potential import SpecimenSpec, make_specimen, pbtio3_unit_cell
from repro.physics.scan import RasterScan, ScanSpec, probe_window
from repro.physics.multislice import MultisliceModel
from repro.physics.dataset import (
    DatasetSpec,
    PtychoDataset,
    simulate_dataset,
    small_pbtio3_spec,
    large_pbtio3_spec,
    scaled_pbtio3_spec,
)

__all__ = [
    "electron_wavelength_pm",
    "interaction_parameter",
    "Probe",
    "ProbeSpec",
    "make_probe",
    "FresnelPropagator",
    "SpecimenSpec",
    "make_specimen",
    "pbtio3_unit_cell",
    "RasterScan",
    "ScanSpec",
    "probe_window",
    "MultisliceModel",
    "DatasetSpec",
    "PtychoDataset",
    "simulate_dataset",
    "small_pbtio3_spec",
    "large_pbtio3_spec",
    "scaled_pbtio3_spec",
]
