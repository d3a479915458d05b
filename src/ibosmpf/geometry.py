"""Delay/dispersion geometry of the two-arm link.

The accumulated group-delay dispersion phi (s^2) maps the differential arm
delay d to the RF passband center f_c = d / (2 pi phi).  phi is stored
signed; asking for a positive passband with d * phi <= 0 is a hard error
rather than a silent use of magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import C
from .errors import ConfigurationError, DomainError, NoPassbandError


def phi_from_dispersion(dispersion: float, wavelength: float) -> float:
    """Accumulated GDD (s^2) from total dispersion (s/m) and wavelength (m)."""
    if not (math.isfinite(dispersion) and math.isfinite(wavelength)):
        raise ConfigurationError("dispersion and wavelength must be finite")
    if wavelength <= 0:
        raise ConfigurationError("wavelength must be positive")
    return -dispersion * wavelength**2 / (2.0 * math.pi * C)


@dataclass(frozen=True)
class DispersionSpec:
    """Accumulated dispersion of the link after the modulator."""

    phi: float  # group-delay dispersion, beta0'' * z [s^2]

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise ConfigurationError("phi must be finite")

    @classmethod
    def from_dispersion_parameter(cls, dispersion: float, wavelength: float) -> "DispersionSpec":
        return cls(phi=phi_from_dispersion(dispersion, wavelength))


@dataclass(frozen=True)
class InterferometerSpec:
    """Two-arm interferometer: differential delay and arm amplitude ratio."""

    delay_d: float  # differential delay of the second arm [s]
    carrier_f0: float  # optical carrier [Hz]
    arm_ratio_k: complex = 1.0 + 0.0j  # delayed-arm amplitude relative to the other

    def __post_init__(self):
        if not math.isfinite(self.delay_d):
            raise ConfigurationError("delay must be finite")
        if self.carrier_f0 < 0 or not math.isfinite(self.carrier_f0):
            raise ConfigurationError("carrier frequency must be finite and >= 0")
        if not abs(self.arm_ratio_k) <= 1.0 + 1e-12:  # NaN fails this, and so is refused
            raise ConfigurationError("|arm_ratio_k| must be finite and <= 1 for a passive splitter")

    @property
    def carrier_phase(self) -> float:
        """Interferometric carrier phase 2 pi f0 d."""
        return 2.0 * math.pi * self.carrier_f0 * self.delay_d


def center_frequency(delay: float, phi: float) -> float:
    """Passband center f_c = d / (2 pi phi)."""
    if phi == 0.0:
        raise NoPassbandError("phi = 0 gives no bandpass response")
    if delay == 0.0:
        return 0.0
    if delay * phi < 0.0:
        raise DomainError(
            "configuration: delay and dispersion signs place the passband "
            "at negative frequency"
        )
    return delay / (2.0 * math.pi * phi)


def delay_for_center(f_c: float, phi: float) -> float:
    """Differential delay that centers the passband at ``f_c``."""
    if phi == 0.0:
        raise NoPassbandError("phi = 0 gives no bandpass response")
    if not f_c >= 0:
        raise ConfigurationError("passband center f_c must be >= 0")
    return 2.0 * math.pi * phi * f_c


def optical_fsr(wavelength: float, delay: float) -> float:
    """Interferometer fringe period in wavelength, lambda^2 / (c d)."""
    if not delay > 0:
        raise ConfigurationError("delay must be positive for an optical FSR")
    if not wavelength > 0:
        raise ConfigurationError("wavelength must be positive")
    return wavelength**2 / (C * delay)
