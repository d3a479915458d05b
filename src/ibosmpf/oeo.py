"""Phase noise of an oscillator loop closed around the filter.

With input noise-to-signal ratio delta (per hertz) and loop group delay
tau, the oscillating tone's phase-noise spectrum at offset f' is

    S(f') = delta / (2 - delta/tau - 2 sqrt(1 - delta/tau) cos(2 pi f' tau))

valid for 0 < delta < tau.  Maxima sit exactly at the loop-mode offsets
k / tau.
"""

from __future__ import annotations

import math

import numpy as np

from .closed_forms import SnrReport
from .errors import DomainError


def oeo_phase_noise(delta: float, tau: float, f_offsets) -> np.ndarray:
    """Phase-noise PSD at the given offsets (linear units, rad^2/Hz)."""
    if not (math.isfinite(delta) and math.isfinite(tau)):
        raise DomainError("delta and tau must be finite")
    if tau <= 0:
        raise DomainError("loop delay tau must be positive")
    if delta <= 0:
        raise DomainError("input noise-to-signal ratio delta must be positive")
    if delta >= tau:
        raise DomainError("formula requires delta < tau")
    f_offsets = np.asarray(f_offsets, dtype=float)
    x = delta / tau
    # stable form of 2 - x - 2 sqrt(1-x) cos(2 pi f tau); the direct
    # subtraction cancels catastrophically at small offsets
    s = math.sqrt(1.0 - x)
    one_minus_s = x / (1.0 + s)
    denom = one_minus_s**2 + 4.0 * s * np.sin(np.pi * f_offsets * tau) ** 2
    return delta / denom


def noise_to_signal_ratio(report: SnrReport) -> float:
    """Input noise-to-signal ratio per hertz, delta = 1 / SNR_linear."""
    if report.snr_linear <= 0:
        raise DomainError("SNR must be positive")
    return 1.0 / report.snr_linear
