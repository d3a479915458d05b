"""Frequency-domain route to the SSB signal power and noise PSD.

Instead of time-domain autocorrelation algebra, this path works with the
spectral components of the source field: components at different optical
frequencies are uncorrelated, the dispersive medium is the all-pass phase
factor T(f) = exp(-j phi (2 pi f)^2 / 2), and the interferometer the comb
weight |L(f)|^2 = 2 + 2 cos(theta0 + 2 pi f d).  The fourth moment then
splits into six noise pairings and a coherent signal pairing, each a
product of single-band integrals evaluated here by direct quadrature.

This is a second, independent implementation of the same physics as the
closed forms in :mod:`ibosmpf.closed_forms`; the two must agree to 1e-9.
"""

from __future__ import annotations

import math

import numpy as np

from ._quad import band_correlation
from .config import LinkConfig
from .errors import ConfigurationError
from .modulation import ModulationKind


def _weights(link: LinkConfig, f_m: float):
    spectrum = link.spectrum
    d = link.delay
    theta0 = link.carrier_phase
    phi = link.phi
    v_m = 2.0 * math.pi * phi * f_m

    def comb(v):
        return 2.0 + 2.0 * np.cos(theta0 + 2.0 * np.pi * v * d)

    def x1(v):
        return spectrum.psd(v) * comb(v)

    def x3(v):
        return spectrum.psd(v - f_m) * comb(v - f_m)

    def t_pair_up(v):
        # T(v + f_m) T*(v) for the quadratic dispersion phase
        return np.exp(-1j * phi * 0.5 * ((2.0 * np.pi * (v + f_m)) ** 2 - (2.0 * np.pi * v) ** 2))

    def y2(v):
        return x1(v) * t_pair_up(v)

    def y5(v):
        # T(v - f_m) T*(v) on the shifted band
        return x3(v) * np.exp(
            -1j * phi * 0.5 * ((2.0 * np.pi * (v - f_m)) ** 2 - (2.0 * np.pi * v) ** 2)
        )

    lo, hi = spectrum.support()
    sup1 = (lo, hi)
    sup3 = (lo + f_m, hi + f_m)
    rate = 2.0 * abs(d) + 2.0 * abs(v_m)
    return x1, x3, y2, y5, sup1, sup3, rate


def _require_ssb(link: LinkConfig) -> float:
    if link.scheme.kind is not ModulationKind.SSB:
        raise ConfigurationError("the frequency-domain route covers the SSB scheme")
    link.require_balanced_arms("the frequency-domain route")
    return link.scheme.gamma


def freq_domain_signal_power(link: LinkConfig) -> float:
    """Detected RF power at +-f_m via the spectral-component pairing."""
    gamma = _require_ssb(link)
    x1, x3, y2, y5, sup1, sup3, rate = _weights(link, link.scheme.f_m)
    # int y2(v) dv: the correlation with a unit weight at zero shift
    q = band_correlation(y2, np.ones_like, sup1, sup1, 0.0, rate)[0]
    return 2.0 * (gamma / 2.0) ** 2 * abs(q) ** 2


def freq_domain_noise_psd(link: LinkConfig, f):
    """Continuum intensity-noise PSD at f via the six spectral pairings; a scalar f gives a float."""
    gamma = _require_ssb(link)
    f_m = link.scheme.f_m
    x1, x3, y2, y5, sup1, sup3, rate = _weights(link, f_m)
    f = np.asarray(f, dtype=float)
    shifts = f.ravel()
    g2 = (gamma / 2.0) ** 2

    def conj_of(w):
        return lambda v: np.conj(w(v))

    total = band_correlation(x1, x1, sup1, sup1, shifts, rate)
    total += g2 * band_correlation(y2, conj_of(y2), sup1, sup1, shifts, rate)
    total += g2 * band_correlation(x3, x1, sup3, sup1, shifts, rate)
    total += g2 * band_correlation(x1, x3, sup1, sup3, shifts, rate)
    total += g2 * band_correlation(y5, conj_of(y5), sup3, sup3, shifts, rate)
    total += g2 * g2 * band_correlation(x3, x3, sup3, sup3, shifts, rate)
    out = np.real(total).reshape(f.shape)
    return out if out.ndim else float(out)
