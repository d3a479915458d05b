"""Closed-form intensity spectra for the single-arm phase-modulated link.

One arm carries truncated-Bessel phase modulation (orders -1, 0, +1), the
other is an unmodulated delayed copy.  The fourth-moment expansion of the
detected intensity then has sixteen contributions; each couples a product
of shifted source autocorrelations with a short harmonic table in the RF
fundamental.  The tables below are hand-reduced for this scheme, keeping
every term (including the fourth-order Bessel pieces and the
interferometric cross spectra that the usual flat approximations drop), so
the result is exact for the truncated modulation.
"""

from __future__ import annotations

import math

import numpy as np

from .closed_forms import SnrReport, snr_sweep
from .config import LinkBatch, LinkConfig
from .decomposition import SpectralDecomposition, _LineLags, real_line_powers
from .errors import ConfigurationError
from .modulation import ModulationKind, bessel_j01

# Term table: (A-part shifts, B-part shifts, carrier-phase exponent).
# A(v) = R0(v + va) R0*(v + vb); B(u) = R0(u + ua) R0*(u + ub); the common
# prefactor is exp(j * n * carrier_phase).  Shifts are in units of the
# delay d; "mf" selects the harmonic table of the modulation average.
_TERMS = (
    # (va, vb, ua, ub, n, mf)
    (0, 0, 0, 0, 0, "full"),
    (0, +1, -1, 0, -1, "triple_a"),
    (0, -1, 0, -1, +1, "triple_b"),
    (0, 0, -1, -1, 0, "pair_v"),
    (-1, 0, 0, +1, -1, "triple_a"),
    (-1, +1, -1, +1, -2, "pair_sum"),
    (-1, -1, 0, 0, 0, "pair_u"),
    (-1, 0, -1, 0, -1, "single"),
    (+1, 0, +1, 0, +1, "triple_b"),
    (+1, +1, 0, 0, 0, "pair_u"),
    (+1, -1, +1, -1, +2, "pair_diff"),
    (+1, 0, 0, -1, +1, "single"),
    (0, 0, +1, +1, 0, "pair_v"),
    (0, +1, 0, +1, -1, "single"),
    (0, -1, +1, 0, +1, "single"),
    (0, 0, 0, 0, 0, "one"),
)


# Coefficients of exp(j k omega u) in the modulation time average, per "mf"
# label, from c = cos(omega v), e = exp(j omega v) and the Bessel values.
_HARMONIC_TABLES = {
    "full": lambda c, e, j0, j1: {
        0: (j0**2 + 2.0 * j1**2 * c) ** 2,
        1: 2.0 * j0**2 * j1**2 * (1.0 - c),
        -1: 2.0 * j0**2 * j1**2 * (1.0 - c),
        2: j1**4 * np.ones_like(c),
        -2: j1**4 * np.ones_like(c),
    },
    "triple_a": lambda c, e, j0, j1: {
        0: j0**3 + 2.0 * j0 * j1**2 * c,
        1: j0 * j1**2 * (1.0 - e),
        -1: np.conj(j0 * j1**2 * (1.0 - e)),
    },
    "triple_b": lambda c, e, j0, j1: {
        0: j0**3 + 2.0 * j0 * j1**2 * c,
        1: np.conj(j0 * j1**2 * (1.0 - e)),
        -1: j0 * j1**2 * (1.0 - e),
    },
    "pair_v": lambda c, e, j0, j1: {0: j0**2 + 2.0 * j1**2 * c},
    "pair_u": lambda c, e, j0, j1: {
        0: j0**2 * np.ones_like(c),
        1: j1**2 * np.ones_like(c),
        -1: j1**2 * np.ones_like(c),
    },
    "pair_sum": lambda c, e, j0, j1: {0: j0**2 * np.ones_like(c), 1: -(j1**2) * e, -1: -(j1**2) * np.conj(e)},
    "pair_diff": lambda c, e, j0, j1: {0: j0**2 * np.ones_like(c), 1: -(j1**2) * np.conj(e), -1: -(j1**2) * e},
    "single": lambda c, e, j0, j1: {0: j0 * np.ones_like(c)},
    "one": lambda c, e, j0, j1: {0: np.ones_like(c)},
}


def _harmonic_tables(v, omega: float, j0: float, j1: float) -> dict:
    """Every harmonic table at the fringe argument v, keyed by its "mf" label."""
    c = np.cos(omega * v)
    e_v = np.exp(1j * omega * v)
    return {mf: build(c, e_v, j0, j1) for mf, build in _HARMONIC_TABLES.items()}


def _carrier_phases(theta0) -> dict:
    """exp(j n theta0) for each carrier-phase exponent n of the term table."""
    return {n: np.exp(1j * n * theta0) for n in {n for *_, n, _ in _TERMS}}


def _pm_parameters(link: LinkConfig | LinkBatch):
    """J0(gamma) and J1(gamma); arrays over a batch's points."""
    if link.scheme.kind is not ModulationKind.PM:
        raise ConfigurationError("phase-modulation closed forms require a PM scheme")
    link.require_balanced_arms("phase-modulation closed forms")
    return bessel_j01(link.scheme.gamma)


def _continuum_terms(link: LinkConfig | LinkBatch, f) -> dict:
    """Continuum terms at the frequencies f, summed per :func:`_physical_group` label."""
    j0, j1 = _pm_parameters(link)
    f_m = link.scheme.f_m
    omega = 2.0 * math.pi * f_m
    d = link.delay
    theta0 = link.carrier_phase
    spectrum = link.spectrum
    v = 2.0 * np.pi * link.phi * f
    tables = _harmonic_tables(v, omega, j0, j1)
    phases = _carrier_phases(theta0)
    cross: dict = {}  # (k, m) -> CC(f - k f_m, m d), m = ua - ub: one call per shift for all its k
    for m in {ua - ub for _, _, ua, ub, _, _ in _TERMS}:
        ks = sorted({k for _, _, ua, ub, _, mf in _TERMS if ua - ub == m for k in tables[mf]})
        cross.update(zip([(k, m) for k in ks], spectrum.cross_spectrum(np.stack([f - k * f_m for k in ks]), m * d)))
    bases: dict = {}  # (k, ua, ub) -> transform of R0(u + ua d) R0*(u + ub d) at f - k f_m
    totals: dict = {}
    for va, vb, ua, ub, n, mf in _TERMS:
        for k, coeff in tables[mf].items():
            if (k, ua, ub) not in bases:
                bases[(k, ua, ub)] = np.exp(2j * np.pi * (f - k * f_m) * (ub * d)) * cross[(k, ua - ub)]
            label = _physical_group(ua, ub, k)
            totals[label] = totals.get(label, 0.0) + coeff * phases[n] * bases[(k, ua, ub)]
    return totals


def _physical_group(ua: int, ub: int, k: int) -> str:
    if ua != ub:
        return "interferometric_cross"
    if k == 0:
        return "main_band"
    return "upconverted" if abs(k) == 1 else "second_harmonic"


def pm_continuum_grouped(link: LinkConfig | LinkBatch, f) -> dict:
    """Continuum at f, split into physically labelled parts.

    On a batch, f holds one frequency per point; a scalar f gives floats.
    """
    f = np.asarray(f, dtype=float)
    totals = _continuum_terms(link, np.atleast_1d(f))
    names = ("main_band", "upconverted", "second_harmonic", "interferometric_cross")
    return {name: totals[name].real if f.ndim else float(totals[name].real[0]) for name in names}


def pm_continuum(link: LinkConfig, f):
    """Continuum intensity-noise PSD of the phase-modulated link at f: its labelled parts summed."""
    return sum(pm_continuum_grouped(link, f).values())


def pm_line_weights(link: LinkConfig | LinkBatch, f_m=None, orders=(-2, -1, 0, 1, 2)) -> dict:
    """Discrete line powers at k * f_m for each k in ``orders``.

    ``f_m`` may be an array; each weight is then an array over it.  Each
    distinct lag array v_k + s d (order k, shift s in units of the delay)
    goes through the source autocorrelation once per call, and those values
    must be Hermitian, R0(-u) = R0(u)* to 1e-9 of |R0| (mirrors the orders
    lack are evaluated for the check), before the realness check of
    :func:`~ibosmpf.decomposition.real_line_powers`; either failure raises
    :class:`DomainError`.
    """
    j0, j1 = _pm_parameters(link)
    if f_m is None:
        f_m = link.scheme.f_m
    f_m = np.asarray(f_m, dtype=float)
    omega = 2.0 * math.pi * f_m
    phases = _carrier_phases(link.carrier_phase)
    r0 = _LineLags(link, f_m)
    weights = np.zeros((len(orders),) + f_m.shape, dtype=complex)
    for i, k in enumerate(orders):
        tables = _harmonic_tables(2.0 * np.pi * link.phi * (k * f_m), omega, j0, j1)
        for va, vb, ua, ub, n, mf in _TERMS:
            if k not in tables[mf]:
                continue
            a_part = r0(k, va) * np.conj(r0(k, vb))
            weights[i] += tables[mf][k] * phases[n] * a_part
    r0.check_hermitian()
    line_freqs = np.multiply.outer(np.asarray(orders, dtype=float), f_m)
    powers = real_line_powers(weights, line_freqs)
    return {k: (p if f_m.ndim else float(p)) for k, p in zip(orders, powers)}


def pm_decomposition(link: LinkConfig, f_grid: np.ndarray) -> SpectralDecomposition:
    f_grid = np.asarray(f_grid, dtype=float)
    f_m = link.scheme.f_m
    weights = pm_line_weights(link)
    lines = [(k * f_m, w) for k, w in sorted(weights.items()) if w > 0 or k == 0]
    decomp = SpectralDecomposition(
        frequencies=f_grid,
        continuum=pm_continuum(link, f_grid),
        line_frequencies=np.array([f for f, _ in lines]),
        line_powers=np.array([w for _, w in lines]),
        metadata={"path": "closed-form-pm", "f_m": f_m},
    )
    return decomp


def signal_power_pm(link: LinkConfig, f_m=None):
    """Detected RF power at f_m for phase modulation: the +-f_m line weights.

    Its dominant terms are 8 J0^2 J1^2 sin^2(pi f_m v_m) |R0(v_m)|^2
    + 2 J1^2 [|R0(v_m + d)|^2 + |R0(v_m - d)|^2].
    ``f_m`` may be an array; a scalar returns a float.
    """
    weights = pm_line_weights(link, f_m=f_m, orders=(-1, 1))
    return weights[1] + weights[-1]


def _noise_terms(link: LinkBatch) -> dict:
    """Noise at +-f_m per physical part, as the SNR reports it."""
    return {name: 2.0 * v for name, v in pm_continuum_grouped(link, link.scheme.f_m).items()}


def _compact(cth, gamma):
    return 2.0 * (cth - 0.5) ** 2 + 4.0 / gamma**2 * (cth + 2.0) + 7.5


def snr_pm(link: LinkConfig) -> SnrReport:
    """PM SNR at the passband center: exact ratio plus the compact estimate.

    The compact estimate is B / (2 [cos th - 1/2]^2 + 4/g^2 [cos th + 2] + 7.5);
    its algebraic reduction is looser than the exact ratio (about +2.5 dB at
    the bench operating point), which the report makes visible.  The
    one-point case of :func:`~ibosmpf.closed_forms.snr_sweep`.
    """
    if link.scheme.kind is not ModulationKind.PM:
        raise ConfigurationError("snr_pm requires a PM scheme")
    return snr_sweep([link])[0]
