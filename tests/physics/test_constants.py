"""Electron-optics constants against textbook values."""

import pytest

from repro.physics.constants import (
    electron_wavelength_pm,
    interaction_parameter,
)


class TestWavelength:
    @pytest.mark.parametrize(
        "energy_ev,expected_pm",
        [
            (100_000.0, 3.701),   # Kirkland table values
            (200_000.0, 2.508),
            (300_000.0, 1.969),
        ],
    )
    def test_textbook_values(self, energy_ev, expected_pm):
        assert electron_wavelength_pm(energy_ev) == pytest.approx(
            expected_pm, rel=1e-3
        )

    def test_monotone_decreasing_with_energy(self):
        assert electron_wavelength_pm(100e3) > electron_wavelength_pm(200e3)

    def test_rejects_non_positive_energy(self):
        with pytest.raises(ValueError):
            electron_wavelength_pm(0.0)
        with pytest.raises(ValueError):
            electron_wavelength_pm(-5.0)


class TestInteractionParameter:
    def test_200kev_magnitude(self):
        """sigma(200kV) ~ 0.00729 rad/(V*A) = 7.29e-7 rad/(V*pm) * 10
        ... expressed in rad/(V*pm): ~7.29e-4 / 100 = 7.29e-6."""
        sigma = interaction_parameter(200_000.0)
        assert sigma == pytest.approx(7.29e-6, rel=0.02)

    def test_decreases_with_energy(self):
        assert interaction_parameter(100e3) > interaction_parameter(300e3)
