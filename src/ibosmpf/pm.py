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

from .closed_forms import SnrReport, _cos_fringe_argument
from .config import LinkConfig
from .decomposition import SpectralDecomposition, real_line_powers
from .errors import ConfigurationError, DomainError
from .modulation import ModulationKind
from .spectrum import RectangularSpectrum

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


def _harmonic_table(mf: str, v, omega: float, j0: float, j1: float) -> dict:
    """Coefficients of exp(j k omega u) in the modulation time average."""
    c = np.cos(omega * v)
    e_v = np.exp(1j * omega * v)
    if mf == "full":
        return {
            0: (j0**2 + 2.0 * j1**2 * c) ** 2,
            1: 2.0 * j0**2 * j1**2 * (1.0 - c),
            -1: 2.0 * j0**2 * j1**2 * (1.0 - c),
            2: j1**4 * np.ones_like(c),
            -2: j1**4 * np.ones_like(c),
        }
    if mf == "triple_a":
        b2 = j0 * j1**2 * (1.0 - e_v)
        return {0: j0**3 + 2.0 * j0 * j1**2 * c, 1: b2, -1: np.conj(b2)}
    if mf == "triple_b":
        b2 = j0 * j1**2 * (1.0 - e_v)
        return {0: j0**3 + 2.0 * j0 * j1**2 * c, 1: np.conj(b2), -1: b2}
    if mf == "pair_v":
        return {0: j0**2 + 2.0 * j1**2 * c}
    if mf == "pair_u":
        return {
            0: j0**2 * np.ones_like(c),
            1: j1**2 * np.ones_like(c),
            -1: j1**2 * np.ones_like(c),
        }
    if mf == "pair_sum":
        return {0: j0**2 * np.ones_like(c), 1: -(j1**2) * e_v, -1: -(j1**2) * np.conj(e_v)}
    if mf == "pair_diff":
        return {0: j0**2 * np.ones_like(c), 1: -(j1**2) * np.conj(e_v), -1: -(j1**2) * e_v}
    if mf == "single":
        return {0: j0 * np.ones_like(c)}
    if mf == "one":
        return {0: np.ones_like(c)}
    raise AssertionError(mf)


def _pm_parameters(link: LinkConfig):
    if link.scheme.kind is not ModulationKind.PM:
        raise ConfigurationError("phase-modulation closed forms require a PM scheme")
    if abs(link.interferometer.arm_ratio_k - 1.0) > 1e-12 or abs(
        complex(link.scheme.arm_ratio_k) - 1.0
    ) > 1e-12:
        raise ConfigurationError("phase-modulation closed forms assume balanced arms")
    from scipy import special

    gamma = link.scheme.gamma
    return float(special.j0(gamma)), float(special.j1(gamma))


def _continuum_terms(link: LinkConfig, f, f_m, exact: bool, group) -> dict:
    """Continuum terms at the frequencies f, summed per ``group(ua, ub, k)`` label."""
    j0, j1 = _pm_parameters(link)
    if f_m is None:
        f_m = link.scheme.f_m
    omega = 2.0 * math.pi * f_m
    d = link.delay
    theta0 = link.carrier_phase
    spectrum = link.spectrum
    v = 2.0 * np.pi * link.phi * f
    totals: dict = {}
    for va, vb, ua, ub, n, mf in _TERMS:
        if not exact and ua != ub:
            continue
        table = _harmonic_table(mf, v, omega, j0, j1)
        phase = np.exp(1j * n * theta0)
        for k, coeff in table.items():
            base = spectrum.lag_product_spectrum(f - k * f_m, ua * d, ub * d)
            label = group(ua, ub, k)
            totals[label] = totals.get(label, 0.0) + coeff * phase * base
    return totals


def pm_continuum(link: LinkConfig, f, f_m: float | None = None, exact: bool = True):
    """Continuum intensity-noise PSD of the phase-modulated link at f."""
    f = np.atleast_1d(np.asarray(f, dtype=float))
    totals = _continuum_terms(link, f, f_m, exact, lambda ua, ub, k: "total")
    out = np.real(totals["total"])
    return out if out.size > 1 else float(out[0])


def _physical_group(ua: int, ub: int, k: int) -> str:
    if ua != ub:
        return "interferometric_cross"
    if k == 0:
        return "main_band"
    return "upconverted" if abs(k) == 1 else "second_harmonic"


def pm_continuum_grouped(link: LinkConfig, f: float, f_m: float | None = None) -> dict:
    """Continuum at one frequency, split into physically labelled parts."""
    totals = _continuum_terms(link, np.atleast_1d(float(f)), f_m, True, _physical_group)
    names = ("main_band", "upconverted", "second_harmonic", "interferometric_cross")
    return {name: float(totals[name].real[0]) for name in names}


def pm_line_weights(link: LinkConfig, f_m=None, orders=(-2, -1, 0, 1, 2)) -> dict:
    """Discrete line powers at k * f_m for each k in ``orders``.

    ``f_m`` may be an array; each weight is then an array over it.
    """
    j0, j1 = _pm_parameters(link)
    if f_m is None:
        f_m = link.scheme.f_m
    f_m = np.asarray(f_m, dtype=float)
    omega = 2.0 * math.pi * f_m
    d = link.delay
    theta0 = link.carrier_phase
    r0 = link.spectrum.autocorrelation
    weights = np.zeros((len(orders),) + f_m.shape, dtype=complex)
    for i, k in enumerate(orders):
        v_k = 2.0 * np.pi * link.phi * (k * f_m)
        for va, vb, ua, ub, n, mf in _TERMS:
            table = _harmonic_table(mf, v_k, omega, j0, j1)
            if k not in table:
                continue
            a_part = r0(v_k + va * d) * np.conj(r0(v_k + vb * d))
            weights[i] += table[k] * np.exp(1j * n * theta0) * a_part
    line_freqs = np.multiply.outer(np.asarray(orders, dtype=float), f_m)
    powers = real_line_powers(weights, line_freqs)
    return {k: (p if f_m.ndim else float(p)) for k, p in zip(orders, powers)}


def pm_decomposition(link: LinkConfig, f_grid: np.ndarray, exact: bool = True) -> SpectralDecomposition:
    f_grid = np.asarray(f_grid, dtype=float)
    f_m = link.scheme.f_m
    weights = pm_line_weights(link)
    lines = [(k * f_m, w) for k, w in sorted(weights.items()) if w > 0 or k == 0]
    decomp = SpectralDecomposition(
        frequencies=f_grid,
        continuum=pm_continuum(link, f_grid, exact=exact),
        line_frequencies=np.array([f for f, _ in lines]),
        line_powers=np.array([w for _, w in lines]),
        metadata={"path": "closed-form-pm", "exact": exact, "f_m": f_m},
    )
    return decomp


def signal_power_pm(link: LinkConfig, f_m=None, printed: bool = False):
    """Detected RF power at f_m for phase modulation.

    The default sums the exact +-f_m line weights.  ``printed=True``
    selects the dominant-term form
    8 J0^2 J1^2 sin^2(pi f_m v_m) |R0(v_m)|^2
    + 2 J1^2 [|R0(v_m + d)|^2 + |R0(v_m - d)|^2].
    ``f_m`` may be an array; a scalar returns a float.
    """
    j0, j1 = _pm_parameters(link)
    if f_m is None:
        f_m = link.scheme.f_m
    if not printed:
        weights = pm_line_weights(link, f_m=f_m, orders=(-1, 1))
        return weights[1] + weights[-1]
    f_m = np.asarray(f_m, dtype=float)
    v_m = 2.0 * np.pi * link.phi * f_m
    r0 = link.spectrum.autocorrelation
    lowpass = (
        8.0
        * j0**2
        * j1**2
        * np.sin(math.pi * f_m * v_m) ** 2
        * np.abs(r0(v_m)) ** 2
    )
    bandpass = 2.0 * j1**2 * (
        np.abs(r0(v_m + link.delay)) ** 2 + np.abs(r0(v_m - link.delay)) ** 2
    )
    power = lowpass + bandpass
    return power if f_m.ndim else float(power)


def noise_power_pm_at(link: LinkConfig, f_c: float | None = None, flat: bool = False) -> float:
    """Noise power in 1 Hz at +-f_c (twice the one-sided continuum).

    ``flat=True`` gives the flat-spectrum estimate
    2 [4 J1^2 cos^2 th + 2 J0^2 cos th + (1 + J0^2)(1 + J0^2 + 4 J1^2)] S0(0)
    with th = 4 pi^2 phi f_c^2.
    """
    j0, j1 = _pm_parameters(link)
    if f_c is None:
        f_c = link.passband_center()
    if flat:
        cth = _cos_fringe_argument(f_c, link.phi)
        bracket = (
            4.0 * j1**2 * cth**2
            + 2.0 * j0**2 * cth
            + (1.0 + j0**2) * (1.0 + j0**2 + 4.0 * j1**2)
        )
        return 2.0 * bracket * float(link.spectrum.intensity_autoconvolution(0.0))
    return 2.0 * float(pm_continuum(link, f_c, f_m=f_c))


def snr_pm(link: LinkConfig) -> SnrReport:
    """PM SNR at the passband center: exact ratio plus the compact estimate.

    The compact estimate is B / (2 [cos th - 1/2]^2 + 4/g^2 [cos th + 2] + 7.5);
    its algebraic reduction is looser than the exact ratio (about +2.5 dB at
    the bench operating point), which the report makes visible.
    """
    f_c = link.passband_center()
    link = link.with_modulation_frequency(f_c)
    gamma = link.scheme.gamma
    if gamma <= 0:
        raise ConfigurationError("SNR needs gamma > 0")

    unit = link.with_spectrum(link.spectrum.with_unit_scale())
    sig_u = signal_power_pm(unit, f_c)
    noise_u = noise_power_pm_at(unit, f_c)
    snr_linear = sig_u / noise_u

    signal = signal_power_pm(link, f_c)
    groups = pm_continuum_grouped(link, f_c, f_m=f_c)
    noise = 2.0 * sum(groups.values())
    breakdown = {name: 2.0 * value for name, value in groups.items()}

    if isinstance(link.spectrum, RectangularSpectrum):
        b = link.spectrum.b
        cth = _cos_fringe_argument(f_c, link.phi)
        denom = 2.0 * (cth - 0.5) ** 2 + 4.0 / gamma**2 * (cth + 2.0) + 7.5
        approx = b / denom
    else:
        approx = snr_linear
    if not (snr_linear > 0 and approx > 0):
        raise DomainError("SNR underflows to zero at this operating point")
    return SnrReport(
        scheme="pm",
        center_frequency=f_c,
        snr_linear=snr_linear,
        snr_db_hz=10.0 * math.log10(snr_linear),
        signal_power=signal,
        noise_psd_at_signal=noise,
        noise_breakdown=breakdown,
        snr_approx_linear=approx,
        snr_approx_db_hz=10.0 * math.log10(approx),
    )
