"""Frequency-domain route to the SSB signal power and noise PSD.

Instead of time-domain autocorrelation algebra, this path works with the
spectral components of the source field: components at different optical
frequencies are uncorrelated, the dispersive medium is the all-pass phase
factor T(f) = exp(-j phi (2 pi f)^2 / 2), and the interferometer the comb
weight |L(f)|^2 = 2 + 2 cos(theta0 + 2 pi f d).  The fourth moment then
splits into six noise pairings and a coherent signal pairing, each a
product of single-band integrals evaluated here by direct quadrature.

The six pairings run in four quadratures: x1 x1 with y2 y2* and x3 x3 with
y5 y5* share a node set each (stacked, see :mod:`ibosmpf._quad`), each still
its own product; no identity between pairings is used.  The comb and the
dispersion phases, linear in v, are the quadrature's phasors times constants.

Each quadrature is sized for its own integrand (see :mod:`ibosmpf._quad`).
x carries the comb at d, so a noise product of two bands oscillates at
most at 2 |d|: a twin's tilt exp(-+j 2 pi v_m v) meets its partner's
exp(+-j 2 pi v_m (v - g)) and leaves a constant in v.  The signal
integrand y2 keeps its tilt, at |d| + |v_m|.

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


def _bands(link: LinkConfig, f_m: float):
    """``band``, D = exp(-j phi (2 pi f_m)^2 / 2), v_m and the two supports.

    ``band(offset)`` is x(v) = G(v - offset) |L(v - offset)|^2 (x1, x3 at 0, f_m);
    ``band(offset, c, tilt)`` stacks [x, c x exp(j 2 pi tilt v)]: y2 = x1 T(v + f_m)
    T*(v) takes (0, D, -v_m), y5 = x3 T(v - f_m) T*(v) (f_m, D, v_m), conjugates (D*, -tilt).
    """
    spectrum = link.spectrum
    d = link.delay
    v_m = 2.0 * math.pi * link.phi * f_m

    def band(offset, *twin):
        # |L|^2 = 2 + 2 Re(comb exp(j 2 pi d v)); theta0 >> 2 pi keeps its own factor, unrounded
        comb = np.exp(1j * link.carrier_phase) * np.exp(-2j * math.pi * offset * d)

        def w(v, phasor):
            x = spectrum.psd(v - offset) * (2.0 + 2.0 * np.real(comb * phasor(d)))
            return np.stack((x, twin[0] * x * phasor(twin[1]))) if twin else x

        return w

    lo, hi = spectrum.support()
    dispersion = np.exp(-0.5j * link.phi * (2.0 * math.pi * f_m) ** 2)
    return band, dispersion, v_m, (lo, hi), (lo + f_m, hi + f_m)


def _require_ssb(link: LinkConfig) -> float:
    if link.scheme.kind is not ModulationKind.SSB:
        raise ConfigurationError("the frequency-domain route covers the SSB scheme")
    link.require_balanced_arms("the frequency-domain route")
    return link.scheme.gamma


def freq_domain_signal_power(link: LinkConfig) -> float:
    """Detected RF power at +-f_m via the spectral-component pairing."""
    gamma = _require_ssb(link)
    band, dispersion, v_m, sup1, _ = _bands(link, link.scheme.f_m)
    # int y2(v) dv: row 1 of [x1, y2] against a unit weight at zero shift, at y2's |d| + |v_m|
    w = band(0.0, dispersion, -v_m)
    q = band_correlation(w, lambda v, _: np.ones_like(v), sup1, sup1, 0.0, abs(link.delay) + abs(v_m))
    return 2.0 * (gamma / 2.0) ** 2 * abs(q[1, 0]) ** 2


def freq_domain_noise_psd(link: LinkConfig, f):
    """Continuum intensity-noise PSD at f via the six spectral pairings; a scalar f gives a float."""
    gamma = _require_ssb(link)
    f = np.asarray(f, dtype=float)
    if not np.all(np.isfinite(f)):
        raise ConfigurationError("noise frequency f must be finite")
    f_m, shifts, g2 = link.scheme.f_m, f.ravel(), (gamma / 2.0) ** 2
    band, dispersion, v_m, sup1, sup3 = _bands(link, f_m)
    rate = 2.0 * abs(link.delay)  # two combs at d; the twins' tilts cancel to a constant in v
    x1, x3, dc = band(0.0), band(f_m), dispersion.conj()
    x1x1, y2y2 = band_correlation(band(0.0, dispersion, -v_m), band(0.0, dc, v_m), sup1, sup1, shifts, rate)
    x3x3, y5y5 = band_correlation(band(f_m, dispersion, v_m), band(f_m, dc, -v_m), sup3, sup3, shifts, rate)
    cross = band_correlation(x3, x1, sup3, sup1, shifts, rate) + band_correlation(x1, x3, sup1, sup3, shifts, rate)
    out = np.real(x1x1 + g2 * (y2y2 + cross + y5y5) + g2 * g2 * x3x3).reshape(f.shape)
    return out if out.ndim else float(out)
