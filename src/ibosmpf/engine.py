"""General intensity-PSD evaluator for arbitrary two-arm modulation pairs.

The detected intensity PSD follows from the Gaussian moment theorem applied
to the two-arm field: sixteen slot assignments of the arms to the four
field factors, each pairing a product of shifted source autocorrelations
with a time average of four modulation factors.  The modulation averages
are expanded generically over the Fourier coefficients of both arms, so any
coefficient pair (and arm amplitude ratio) is supported.

Discrete lines come from the lag-independent parts evaluated directly from
the autocorrelation; the continuum requires transforms of shifted
autocorrelation products, computed as numeric spectral correlation
integrals (:func:`ibosmpf.spectrum.spectral_correlation`) for every
spectrum model.  The cached (lag multiple m, k_u) keys are filled one
quadrature per (|m|, |k_u|) group: its +-lag rows are the +-m keys and its
shifts f -+ |k_u| f_m the +-k_u keys, which the mirror identity makes
nearly free on a grid symmetric about 0: magnitudes equal up to rounding
share one quadrature row.  A complex source PSD keeps its
own -lag phasors (see :mod:`ibosmpf._quad`), so the continuum's realness
check still sees it.  The line weights evaluate each autocorrelation lag
once and check that those values are Hermitian, R0(-u) = R0(u)*, before
their realness check.  That numeric route is deliberately independent of
the per-scheme closed forms, which use the analytic transforms instead;
the two are cross-checked in the tests.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping

import numpy as np

from .config import LinkConfig
from .decomposition import SpectralDecomposition, _LineLags, real_line_powers
from .errors import ConfigurationError, DomainError
from .modulation import build_scheme
from .spectrum import spectral_correlation

# Slot assignments (a, b, c, e): which arm feeds each of the four field
# factors E_a*(t) E_b(t+v) E_c*(t+v+u) E_e(t+u).  Arm 1 is undelayed, arm 2
# is delayed by d and carries exp(-j * carrier_phase).
_SLOT_ASSIGNMENTS = tuple(itertools.product((1, 2), repeat=4))


def _term_geometry(slots: tuple[int, int, int, int]) -> tuple[int, int, int, int, int]:
    """Shift multipliers (va, vb, ua, ub) in units of d, and phase count n."""
    da, db, dc, de = (int(i == 2) for i in slots)
    va = da - db
    vb = de - dc
    ua = da - de
    ub = db - dc
    n = da + dc - db - de
    return va, vb, ua, ub, n


def _modulation_tables(
    m1: Mapping[int, complex], m2: Mapping[int, complex]
) -> dict[tuple[int, int, int, int], dict[tuple[int, int], complex]]:
    """Harmonic tables {(k_v, k_u): coeff} of the four-factor time averages."""
    arms = {1: m1, 2: m2}
    tables = {}
    for slots in _SLOT_ASSIGNMENTS:
        ma, mb, mc, me = (arms[i] for i in slots)
        table: dict[tuple[int, int], complex] = {}
        for p in ma:
            for q in mb:
                for r in mc:
                    s = p - q + r
                    cs = me.get(s)
                    if cs is None:
                        continue
                    coeff = np.conj(ma[p]) * mb[q] * np.conj(mc[r]) * cs
                    if coeff == 0:
                        continue
                    key = (q - r, s - r)
                    table[key] = table.get(key, 0.0 + 0.0j) + coeff
        tables[slots] = table
    return tables


def _arm_modulations(link: LinkConfig):
    """Arm coefficients, the delayed arm's scaled by the splitter amplitude, and f_m."""
    m1, m2 = build_scheme(link.scheme)
    k = complex(link.interferometer.arm_ratio_k)
    return dict(m1.coeffs), {n: k * c for n, c in m2.coeffs.items()}, m1.f_m


def _line_weights(link: LinkConfig, tables, orders, f_m) -> np.ndarray:
    """Line powers at k * f_m for each k in ``orders`` (rows) and each f_m.

    Only the lag-independent parts enter, evaluated at v = 2 pi (k f_m) phi.
    Each lag v + s d goes through the source autocorrelation once per call,
    and those values must be Hermitian before the realness check; either
    failure raises :class:`DomainError`.
    """
    f_m = np.asarray(f_m, dtype=float)
    theta0 = link.carrier_phase
    omega = 2.0 * math.pi * f_m
    r0 = _LineLags(link, f_m)
    weights = np.zeros((len(orders),) + f_m.shape, dtype=complex)
    for i, k_u in enumerate(orders):
        v_line = 2.0 * np.pi * link.phi * (k_u * f_m)
        for slots in _SLOT_ASSIGNMENTS:
            entries = [(k_v, c) for (k_v, kk_u), c in tables[slots].items() if kk_u == k_u]
            if not entries:
                continue
            va, vb, _, _, n = _term_geometry(slots)
            a_part = r0(k_u, va) * np.conj(r0(k_u, vb))
            phase = np.exp(1j * n * theta0)
            for k_v, coeff in entries:
                weights[i] += coeff * phase * np.exp(1j * omega * k_v * v_line) * a_part
    r0.check_hermitian()
    line_freqs = np.multiply.outer(np.asarray(orders, dtype=float), f_m)
    return real_line_powers(weights, line_freqs)


def general_intensity_psd(link: LinkConfig, f_grid: np.ndarray) -> SpectralDecomposition:
    """Exact line/continuum intensity PSD for any configured scheme.

    The grid must be finite, strictly increasing and resolve the
    discrete-line spacing: spacing above half the RF fundamental is rejected.
    """
    f_grid = np.asarray(f_grid, dtype=float)
    if f_grid.ndim != 1 or f_grid.size < 2:
        raise ConfigurationError("frequency grid needs at least two points")
    if not (np.all(np.isfinite(f_grid)) and np.all(np.diff(f_grid) > 0)):
        raise ConfigurationError("frequency grid must be finite and strictly increasing")
    m1c, m2c, f_m = _arm_modulations(link)
    tables = _modulation_tables(m1c, m2c)
    has_sidebands = any(k != (0, 0) for t in tables.values() for k in t)
    if f_m > 0 and has_sidebands:
        max_step = float(np.max(np.diff(f_grid)))
        if max_step > f_m / 2.0:
            raise ConfigurationError(
                "frequency grid too coarse to separate modulation lines: "
                f"step {max_step:.3g} Hz exceeds f_m/2"
            )

    orders = sorted({k_u for table in tables.values() for _, k_u in table})
    spectrum = link.spectrum
    d = link.delay
    theta0 = link.carrier_phase
    omega = 2.0 * math.pi * f_m

    # continuum: the spectral correlations per (lag multiple, k_u) key, one
    # quadrature per (|lag multiple|, |k_u|) group: its +-lag rows fill the
    # +-m keys and its concatenated f -+ |k_u| f_m shifts the +-k_u keys
    terms = []
    for slots in _SLOT_ASSIGNMENTS:
        _, _, ua, ub, n = _term_geometry(slots)
        phase = np.exp(1j * n * theta0)
        terms.extend((ua, ub, phase, k_v, k_u, c) for (k_v, k_u), c in tables[slots].items())
    groups: dict[tuple[int, int], set[int]] = {}
    for ua, ub, _, _, k_u, _ in terms:
        groups.setdefault((abs(ua - ub), abs(k_u)), set()).add(k_u)
    corr_cache: dict[tuple[int, int], np.ndarray] = {}
    for (m, _), signs in groups.items():
        orders_k = sorted(signs)
        shifts = np.concatenate([f_grid - k_u * f_m for k_u in orders_k])
        rows = spectral_correlation(spectrum, shifts, m * d).reshape(2, len(orders_k), -1)
        for j, k_u in enumerate(orders_k):
            corr_cache[(m, k_u)], corr_cache[(-m, k_u)] = rows[:, j]

    # each term's base and fringe, built once per (key, ub) and per k_v
    v_grid = 2.0 * np.pi * link.phi * f_grid
    bases: dict[tuple[int, int, int], np.ndarray] = {}
    fringes: dict[int, np.ndarray] = {}
    continuum = np.zeros(f_grid.shape, dtype=complex)
    for ua, ub, phase, k_v, k_u, coeff in terms:
        key = (ua - ub, k_u, ub)
        if key not in bases:
            bases[key] = np.exp(2j * np.pi * (f_grid - k_u * f_m) * (ub * d)) * corr_cache[key[:2]]
        if k_v not in fringes:
            fringes[k_v] = np.exp(1j * omega * k_v * v_grid)
        continuum += coeff * phase * fringes[k_v] * bases[key]

    imag_peak = float(np.max(np.abs(continuum.imag), initial=0.0))
    real_peak = float(np.max(np.abs(continuum.real), initial=0.0))
    if imag_peak > 1e-9 * max(real_peak, 1e-300):
        raise DomainError(
            "continuum has a non-negligible imaginary part: "
            f"peak |imag| {imag_peak:.3g} against peak |real| {real_peak:.3g}"
        )

    decomp = SpectralDecomposition(
        frequencies=f_grid,
        continuum=continuum.real,
        line_frequencies=np.array([k_u * f_m for k_u in orders]),
        line_powers=_line_weights(link, tables, orders, f_m),
        metadata={"path": "general-engine", "f_m": f_m},
    )
    decomp.clamp_continuum()
    return decomp


def fundamental_line_power(link: LinkConfig, f_m):
    """Detected RF power at +-f_m from the general line machinery.

    ``f_m`` may be an array; a scalar returns a float.
    """
    f = np.asarray(f_m, dtype=float)
    if not np.all(np.isfinite(f) & (f >= 0)):
        raise ConfigurationError("modulation fundamental must be finite and >= 0")
    m1c, m2c, _ = _arm_modulations(link)
    minus, plus = _line_weights(link, _modulation_tables(m1c, m2c), (-1, 1), f)
    total = minus + plus
    return total if f.ndim else float(total)
