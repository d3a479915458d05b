"""Engineering-unit conversions.

All internal computation is SI (seconds, hertz, watts).  These helpers are
the only place where nm / ps / dB style quantities are converted, always
with the exact vacuum light speed.
"""

from __future__ import annotations

from .constants import C
from .errors import ConfigurationError


def optical_bandwidth_to_hz(delta_lambda: float, wavelength: float) -> float:
    """Convert a wavelength span (m) around ``wavelength`` (m) to hertz."""
    if not wavelength > 0:
        raise ConfigurationError("wavelength must be positive")
    return C * delta_lambda / wavelength**2


def wavelength_to_frequency(wavelength: float) -> float:
    if not wavelength > 0:
        raise ConfigurationError("wavelength must be positive")
    return C / wavelength


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** (p_dbm / 10.0) * 1e-3
