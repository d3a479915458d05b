"""Closed-form intensity spectra for the shared-modulator configuration.

Both arms carry the same modulation, so the detected intensity PSD factors
into an interference kernel H built from the source autocorrelation and the
cyclic autocorrelations of the modulation.  Discrete lines live at
multiples of the RF fundamental; the continuum is built from fringed
self-convolutions of the optical PSD.

Each evaluator exists in two flavours: ``exact`` keeps every kernel term,
while the approximate forms drop the interferometric cross terms (valid
when the optical bandwidth times the delay is large) and assume a flat
self-convolution across the RF band.  SNR reports carry both so the
approximation error stays visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import LinkConfig
from .constants import K_B, T_STANDARD
from .decomposition import SpectralDecomposition
from .errors import ConfigurationError, DomainError, NoPassbandError
from .modulation import (
    HarmonicModulation,
    ModulationKind,
    build_scheme,
    cyclic_autocorrelation,
    cyclic_orders,
)
from .spectrum import OpticalSpectrum, RectangularSpectrum, sinc


def interference_kernel(spectrum: OpticalSpectrum, delay: float, carrier_phase: float, x):
    """Two-arm kernel H(x) = 2 R0(x) + R0(x-d) e^{-j p} + R0(x+d) e^{+j p}."""
    r = spectrum.autocorrelation
    phase = np.exp(-1j * carrier_phase)
    return 2.0 * r(x) + r(np.asarray(x) - delay) * phase + r(np.asarray(x) + delay) / phase


def fringed_noise_spectrum(
    spectrum: OpticalSpectrum,
    delay: float,
    carrier_phase: float,
    f,
    exact: bool = True,
):
    """Transform of |H(u)|^2: the fringed intensity-noise shaping spectrum.

    The leading term is [4 + 2 cos(2 pi f d)] S0(f); the exact form adds the
    delay-offset cross spectra, which are suppressed like sinc(pi B d).
    """
    f = np.asarray(f, dtype=float)
    s0 = spectrum.intensity_autoconvolution(f)
    main = (4.0 + 2.0 * np.cos(2.0 * np.pi * f * delay)) * s0
    if not exact:
        return main
    if delay == 0.0:
        # all shifts coincide: |H|^2 = 16 |R0|^2
        return 16.0 * s0
    cc_d = spectrum.cross_spectrum(f, delay)
    cc_2d = spectrum.cross_spectrum(f, 2.0 * delay)
    fringe = np.exp(-2j * np.pi * f * delay)
    cross = 4.0 * np.real(
        np.exp(1j * carrier_phase) * (1.0 + fringe) * cc_d
    ) + 2.0 * np.real(np.exp(2j * carrier_phase) * fringe * cc_2d)
    return main + cross


def _shared_arm(link: LinkConfig, what: str) -> tuple[HarmonicModulation, complex]:
    """The common arm modulation and the scheme's arm amplitude k."""
    m1, m2, k = build_scheme(link.scheme)
    if m1.coeffs != m2.coeffs:
        raise ConfigurationError(f"{what} needs identical arms")
    return m1, k


def _continuum_terms(link: LinkConfig, m: HarmonicModulation, f, exact: bool) -> dict:
    """Per cyclic order s: |C_s(v)|^2 times the fringed spectrum at f + s f_m."""
    v = 2.0 * np.pi * link.phi * f
    return {
        s: np.abs(cyclic_autocorrelation(m, s, v)) ** 2
        * np.real(
            fringed_noise_spectrum(
                link.spectrum, link.delay, link.carrier_phase, f + s * m.f_m, exact=exact
            )
        )
        for s in cyclic_orders(m)
    }


def _line_weights(link: LinkConfig, m: HarmonicModulation, orders) -> list[float]:
    """Line powers |H(v_s)|^2 |C_s(v_s)|^2 at -s f_m for each cyclic order s."""
    weights = []
    for s in orders:
        v_line = 2.0 * np.pi * link.phi * (-s * m.f_m)
        h = interference_kernel(link.spectrum, link.delay, link.carrier_phase, v_line)
        weights.append(
            float(np.abs(h) ** 2 * np.abs(cyclic_autocorrelation(m, s, v_line)) ** 2)
        )
    return weights


def shared_modulator_decomposition(
    link: LinkConfig, f_grid: np.ndarray, exact: bool = True
) -> SpectralDecomposition:
    """Line/continuum intensity PSD when both arms share one modulator."""
    m, k = _shared_arm(link, "shared-modulator closed form")
    if abs(k - 1.0) > 1e-12 or abs(link.interferometer.arm_ratio_k - 1.0) > 1e-12:
        raise ConfigurationError("shared-modulator closed form assumes balanced arms")
    orders = cyclic_orders(m)
    return SpectralDecomposition(
        frequencies=f_grid,
        continuum=noise_psd_shared(link, f_grid, exact=exact),
        line_frequencies=np.array([-s * m.f_m for s in orders]),
        line_powers=np.array(_line_weights(link, m, orders)),
        metadata={"path": "closed-form", "exact": exact, "f_m": m.f_m},
    )


def noise_psd_shared(link: LinkConfig, f, exact: bool = True):
    """Continuum intensity-noise PSD for a shared-modulator scheme."""
    m, _ = _shared_arm(link, "shared-modulator noise PSD")
    f = np.asarray(f, dtype=float)
    out = np.zeros(f.shape)
    for term in _continuum_terms(link, m, f, exact).values():
        out += term
    return out if out.ndim else float(out)


def scheme_line_power(link: LinkConfig, f_m: float) -> float:
    """Detected RF power at the fundamental: both +-f_m line weights."""
    m1, m2, k = build_scheme(link.scheme)
    if m1.coeffs != m2.coeffs or abs(k - 1.0) > 1e-12:
        raise ConfigurationError("scheme_line_power needs a shared-modulator scheme")
    minus, plus = _line_weights(link, HarmonicModulation(f_m, m1.coeffs), (-1, 1))
    return minus + plus


def signal_power_ssb(link: LinkConfig, f_m=None, flat: bool = False):
    """Single-sideband detected signal power at f_m.

    ``flat=True`` selects the passband approximation 2 (gamma/2)^2 R0(0)^2,
    exact only at the passband center with strong fringe suppression.
    ``f_m`` may be an array; a scalar returns a float.
    """
    if link.scheme.kind is not ModulationKind.SSB:
        raise ConfigurationError("signal_power_ssb requires an SSB scheme")
    gamma = link.scheme.gamma
    if f_m is None:
        f_m = link.scheme.f_m
    f_m = np.asarray(f_m, dtype=float)
    if flat:
        power = np.full(f_m.shape, 2.0 * (gamma / 2.0) ** 2 * float(link.spectrum.total_power()) ** 2)
    else:
        v_m = 2.0 * np.pi * link.phi * f_m
        h = interference_kernel(link.spectrum, link.delay, link.carrier_phase, v_m)
        power = 2.0 * (gamma / 2.0) ** 2 * np.abs(h) ** 2
    return power if f_m.ndim else float(power)


def signal_power_dsb(link: LinkConfig, f_m=None):
    """Double-sideband detected signal power at f_m.

    The sum of the +-f_m line weights,
    8 (gamma/2)^2 cos^2(pi f_m v_m) |H(v_m)|^2; see the README notes.
    ``f_m`` may be an array; a scalar returns a float.
    """
    if link.scheme.kind is not ModulationKind.DSB:
        raise ConfigurationError("signal_power_dsb requires a DSB scheme")
    gamma = link.scheme.gamma
    if f_m is None:
        f_m = link.scheme.f_m
    f_m = np.asarray(f_m, dtype=float)
    v_m = 2.0 * np.pi * link.phi * f_m
    h = interference_kernel(link.spectrum, link.delay, link.carrier_phase, v_m)
    fading = np.cos(math.pi * f_m * v_m) ** 2
    power = 8.0 * (gamma / 2.0) ** 2 * fading * np.abs(h) ** 2
    return power if f_m.ndim else float(power)


def dsb_fading_null_frequency(phi: float, order: int = 0) -> float:
    """RF frequency of the dispersion-fading null cos(2 pi^2 phi f^2) = 0."""
    if phi <= 0:
        raise NoPassbandError("fading nulls at positive RF need phi > 0")
    return math.sqrt((0.5 + order) / (2.0 * math.pi * phi))


def passband_shape(link: LinkConfig, detuning) -> np.ndarray:
    """Normalized passband magnitude around the center: sinc^2 profile."""
    if not isinstance(link.spectrum, RectangularSpectrum):
        raise ConfigurationError("passband_shape is defined for rectangular spectra")
    detuning = np.asarray(detuning, dtype=float)
    arg = 2.0 * np.pi**2 * link.spectrum.b * link.phi * detuning
    out = np.asarray(sinc(arg)) ** 2
    return out if detuning.ndim else float(out)


@dataclass(frozen=True)
class SnrReport:
    """Per-hertz SNR of the filtered RF tone at the passband center."""

    scheme: str
    center_frequency: float
    snr_linear: float
    snr_db_hz: float
    signal_power: float
    noise_psd_at_signal: float
    noise_breakdown: dict
    snr_approx_linear: float
    snr_approx_db_hz: float


def _cos_fringe_argument(f_c: float, phi: float) -> float:
    """cos argument 4 pi^2 phi f_c^2, accumulated in extended precision."""
    t = np.longdouble(phi) * np.longdouble(f_c) * np.longdouble(f_c)
    theta = 4.0 * np.longdouble(np.pi) ** 2 * t
    return float(np.cos(theta))


def _ssb_noise_terms(link: LinkConfig, f_c: float, exact: bool) -> dict:
    """Noise at +-f_c per cyclic order: the main band and the two images."""
    m1, _, _ = build_scheme(link.scheme)
    terms = _continuum_terms(link, m1, np.asarray(f_c, dtype=float), exact)
    parts = {"main_band": 0, "upconverted_sum": 1, "upconverted_baseband": -1}
    return {name: 2.0 * float(terms.get(s, 0.0)) for name, s in parts.items()}


def noise_power_ssb_at(
    link: LinkConfig, f_c: float | None = None, exact: bool = True
) -> tuple[float, dict]:
    """Noise power in 1 Hz at +-f_c (continuum only) with its breakdown.

    The three parts are the co-frequency beat term and the two up-converted
    images (from 2 f_c and from baseband).
    """
    if link.scheme.kind is not ModulationKind.SSB:
        raise ConfigurationError("noise_power_ssb_at requires an SSB scheme")
    if f_c is None:
        f_c = link.passband_center()
    link = link.with_modulation_frequency(f_c)
    terms = _ssb_noise_terms(link, f_c, exact=exact)
    return sum(terms.values()), terms


def snr_ssb(link: LinkConfig) -> SnrReport:
    """SSB SNR at the passband center: exact ratio plus the flat approximation.

    The approximation is B / (8 [cos th + 1/2]^2 + 8/g^2 [cos th + 2] + 6)
    with th = 4 pi^2 phi f_c^2, valid for B d >> 1 and B >> f_c.
    """
    if link.scheme.kind is not ModulationKind.SSB:
        raise ConfigurationError("snr_ssb requires an SSB scheme")
    f_c = link.passband_center()
    link = link.with_modulation_frequency(f_c)
    gamma = link.scheme.gamma
    if gamma <= 0:
        raise ConfigurationError("SNR needs gamma > 0")

    # scale-free ratio: unit-PSD copy of the spectrum (SNR has no N0)
    unit = link.with_spectrum(link.spectrum.with_unit_scale())
    sig_u = signal_power_ssb(unit, f_c)
    terms_u = _ssb_noise_terms(unit, f_c, exact=True)
    snr_linear = sig_u / sum(terms_u.values())

    signal = signal_power_ssb(link, f_c)
    terms = _ssb_noise_terms(link, f_c, exact=True)
    noise = sum(terms.values())

    if isinstance(link.spectrum, RectangularSpectrum):
        b = link.spectrum.b
        cth = _cos_fringe_argument(f_c, link.phi)
        denom = 8.0 * (cth + 0.5) ** 2 + 8.0 / gamma**2 * (cth + 2.0) + 6.0
        approx = b / denom
    else:
        approx = snr_linear
    if not (snr_linear > 0 and approx > 0):
        raise DomainError("SNR underflows to zero at this operating point")
    return SnrReport(
        scheme="ssb",
        center_frequency=f_c,
        snr_linear=snr_linear,
        snr_db_hz=10.0 * math.log10(snr_linear),
        signal_power=signal,
        noise_psd_at_signal=noise,
        noise_breakdown=terms,
        snr_approx_linear=approx,
        snr_approx_db_hz=10.0 * math.log10(approx),
    )


def noise_figure(p_in_w: float, snr_db_hz: float) -> float:
    """NF = 10 lg[(P_in / k_B T_s) / SNR] with T_s = 290 K."""
    if p_in_w <= 0:
        raise ConfigurationError("input RF power must be positive")
    return 10.0 * math.log10(p_in_w / (K_B * T_STANDARD)) - snr_db_hz


def frequency_response_sweep(
    link: LinkConfig,
    f_grid: np.ndarray,
    normalize_db: bool = True,
) -> np.ndarray:
    """Signal power versus RF frequency for the configured scheme.

    Returns dB relative to the curve maximum when ``normalize_db`` is set,
    otherwise absolute powers.
    """
    f_grid = np.asarray(f_grid, dtype=float)
    kind = link.scheme.kind
    if kind is ModulationKind.SSB:
        power = signal_power_ssb(link, f_grid)
    elif kind is ModulationKind.DSB:
        power = signal_power_dsb(link, f_grid)
    elif kind is ModulationKind.PM:
        from .pm import signal_power_pm

        power = signal_power_pm(link, f_grid)
    elif kind is ModulationKind.CUSTOM:
        from .engine import fundamental_line_power

        power = fundamental_line_power(link, f_grid)
    else:
        raise ConfigurationError(f"no frequency response for scheme {kind}")
    if not normalize_db:
        return power
    peak = power.max()
    if peak <= 0:
        raise ConfigurationError("response is identically zero; cannot normalize")
    floor = peak * 1e-30
    return 10.0 * np.log10(np.maximum(power, floor) / peak)
