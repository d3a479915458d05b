"""Closed-form intensity spectra for the shared-modulator configuration.

Both arms carry the same modulation, so the detected intensity PSD factors
into an interference kernel H built from the source autocorrelation and the
cyclic autocorrelations of the modulation.  Discrete lines live at
multiples of the RF fundamental; the continuum is built from fringed
self-convolutions of the optical PSD.

Every evaluator keeps all kernel terms, the interferometric cross spectra
included.  The one approximation left is the compact SNR estimate of
:class:`SnrReport` (``snr_approx_*``), which drops those cross terms (valid
when the optical bandwidth times the delay is large) and assumes a flat
self-convolution across the RF band; reports carry it beside the exact
ratio so the approximation error stays visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import LinkConfig
from .constants import K_B, T_STANDARD
from .decomposition import SpectralDecomposition, _LineLags
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
    x = np.asarray(x)
    return _kernel(r(x - delay), r(x), r(x + delay), carrier_phase)


def _kernel(below, centre, above, carrier_phase: float):
    """H from R0 at x - d, x and x + d."""
    phase = np.exp(-1j * carrier_phase)
    return 2.0 * centre + below * phase + above / phase


def fringed_noise_spectrum(
    spectrum: OpticalSpectrum,
    delay: float,
    carrier_phase: float,
    f,
):
    """Transform of |H(u)|^2: the fringed intensity-noise shaping spectrum.

    The leading term is [4 + 2 cos(2 pi f d)] S0(f); the delay-offset cross
    spectra add to it and are suppressed like sinc(pi B d).
    """
    f = np.asarray(f, dtype=float)
    s0 = spectrum.intensity_autoconvolution(f)
    if delay == 0.0:
        # all shifts coincide: |H|^2 = 16 |R0|^2
        return 16.0 * s0
    main = (4.0 + 2.0 * np.cos(2.0 * np.pi * f * delay)) * s0
    cc_d = spectrum.cross_spectrum(f, delay)
    cc_2d = spectrum.cross_spectrum(f, 2.0 * delay)
    fringe = np.exp(-2j * np.pi * f * delay)
    cross = 4.0 * np.real(
        np.exp(1j * carrier_phase) * (1.0 + fringe) * cc_d
    ) + 2.0 * np.real(np.exp(2j * carrier_phase) * fringe * cc_2d)
    return main + cross


def _shared_arm(link: LinkConfig, what: str) -> HarmonicModulation:
    """The modulation both arms share; the arms must also be balanced."""
    m1, m2 = build_scheme(link.scheme)
    if m1.coeffs != m2.coeffs:
        raise ConfigurationError(f"{what} needs identical arms")
    link.require_balanced_arms(what)
    return m1


def _continuum_terms(link: LinkConfig, m: HarmonicModulation, f) -> dict:
    """Per cyclic order s: |C_s(v)|^2 times the fringed spectrum at f + s f_m."""
    v = 2.0 * np.pi * link.phi * f
    return {
        s: np.abs(cyclic_autocorrelation(m, s, v)) ** 2
        * np.real(
            fringed_noise_spectrum(link.spectrum, link.delay, link.carrier_phase, f + s * m.f_m)
        )
        for s in cyclic_orders(m)
    }


def _line_weights(link: LinkConfig, m: HarmonicModulation, orders, f_m) -> np.ndarray:
    """Line powers |H(v_s)|^2 |C_s(v_s)|^2 at -s f_m per cyclic order s (rows) and f_m.

    C_s depends on f_m and v only through f_m v, so one unit-fundamental
    copy of the arm serves every f_m of an array.  H(v_s) comes from R0 at
    v_s + t d (t = -1, 0, 1), each lag evaluated once per call; those values
    must be Hermitian, else :class:`DomainError`.
    """
    f_m = np.asarray(f_m, dtype=float)
    unit = HarmonicModulation(1.0, m.coeffs)
    r0 = _LineLags(link, f_m)
    weights = np.empty((len(orders),) + f_m.shape)
    for i, s in enumerate(orders):
        v_line = 2.0 * np.pi * link.phi * (-s * f_m)
        h = _kernel(r0(-s, -1), r0(-s, 0), r0(-s, 1), link.carrier_phase)
        weights[i] = np.abs(h) ** 2 * np.abs(cyclic_autocorrelation(unit, s, f_m * v_line)) ** 2
    r0.check_hermitian()
    return weights


def shared_modulator_decomposition(link: LinkConfig, f_grid: np.ndarray) -> SpectralDecomposition:
    """Line/continuum intensity PSD when both arms share one modulator."""
    m = _shared_arm(link, "shared-modulator closed form")
    orders = cyclic_orders(m)
    return SpectralDecomposition(
        frequencies=f_grid,
        continuum=noise_psd_shared(link, f_grid),
        line_frequencies=np.array([-s * m.f_m for s in orders]),
        line_powers=_line_weights(link, m, orders, m.f_m),
        metadata={"path": "closed-form", "f_m": m.f_m},
    )


def noise_psd_shared(link: LinkConfig, f):
    """Continuum intensity-noise PSD for a shared-modulator scheme."""
    m = _shared_arm(link, "shared-modulator noise PSD")
    f = np.asarray(f, dtype=float)
    out = np.zeros(f.shape)
    for term in _continuum_terms(link, m, f).values():
        out += term
    return out if out.ndim else float(out)


def _fundamental_power(link: LinkConfig, f_m):
    """Sum of the +-f_m line weights of the shared arm; a scalar f_m gives a float."""
    m = _shared_arm(link, "shared-modulator signal power")
    f_m = np.asarray(link.scheme.f_m if f_m is None else f_m, dtype=float)
    minus, plus = _line_weights(link, m, (1, -1), f_m)
    power = minus + plus
    return power if f_m.ndim else float(power)


def signal_power_ssb(link: LinkConfig, f_m=None):
    """Single-sideband detected signal power at f_m: 2 (gamma/2)^2 |H(v_m)|^2.

    ``f_m`` may be an array; a scalar returns a float.
    """
    if link.scheme.kind is not ModulationKind.SSB:
        raise ConfigurationError("signal_power_ssb requires an SSB scheme")
    return _fundamental_power(link, f_m)


def signal_power_dsb(link: LinkConfig, f_m=None):
    """Double-sideband detected signal power at f_m.

    The sum of the +-f_m line weights,
    8 (gamma/2)^2 cos^2(pi f_m v_m) |H(v_m)|^2; see the README notes.
    ``f_m`` may be an array; a scalar returns a float.
    """
    if link.scheme.kind is not ModulationKind.DSB:
        raise ConfigurationError("signal_power_dsb requires a DSB scheme")
    return _fundamental_power(link, f_m)


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


def _ssb_noise_terms(link: LinkConfig, f_c: float) -> dict:
    """Noise at +-f_c per cyclic order: the main band and the two images."""
    m1, _ = build_scheme(link.scheme)
    terms = _continuum_terms(link, m1, np.asarray(f_c, dtype=float))
    parts = {"main_band": 0, "upconverted_sum": 1, "upconverted_baseband": -1}
    return {name: 2.0 * float(terms.get(s, 0.0)) for name, s in parts.items()}


def _snr_at_center(link: LinkConfig, signal, breakdown, compact) -> SnrReport:
    """SNR report at the passband center from a scheme's closed forms.

    ``signal(link, f_c)`` is the tone power, ``breakdown(link, f_c)`` the
    named noise parts in 1 Hz at +-f_c, and ``compact(cos th, gamma)`` the
    denominator of the rectangular-spectrum estimate B / compact.

    Each is evaluated once, on the unit-PSD copy of the link, so the ratio
    has no PSD level in it.  Every power is quadratic in the PSD, so the
    reported ones are those unit values times the square of the PSD scale;
    a squared scale that overflows raises :class:`DomainError`.
    """
    f_c = link.passband_center()
    link = link.with_modulation_frequency(f_c)
    gamma = link.scheme.gamma
    if gamma <= 0:
        raise ConfigurationError("SNR needs gamma > 0")
    if gamma**2 == 0:  # the compact form divides by it
        raise DomainError(f"gamma = {gamma:g} underflows: gamma**2 is 0")
    unit = link.with_spectrum(link.spectrum.with_unit_scale())
    scale = link.spectrum.total_power() / unit.spectrum.total_power()
    power_scale = scale * scale
    if not math.isfinite(power_scale):
        raise DomainError(f"squared PSD level overflows: ({scale:g} W/Hz)**2 is not finite")

    unit_signal = signal(unit, f_c)
    unit_terms = breakdown(unit, f_c)
    snr_linear = unit_signal / sum(unit_terms.values())
    terms = {name: value * power_scale for name, value in unit_terms.items()}

    if isinstance(link.spectrum, RectangularSpectrum):
        approx = link.spectrum.b / compact(_cos_fringe_argument(f_c, link.phi), gamma)
    else:
        approx = snr_linear
    if not (snr_linear > 0 and approx > 0):
        raise DomainError("SNR underflows to zero at this operating point")
    return SnrReport(
        scheme=link.scheme.kind.value,
        center_frequency=f_c,
        snr_linear=snr_linear,
        snr_db_hz=10.0 * math.log10(snr_linear),
        signal_power=unit_signal * power_scale,
        noise_psd_at_signal=sum(terms.values()),
        noise_breakdown=terms,
        snr_approx_linear=approx,
        snr_approx_db_hz=10.0 * math.log10(approx),
    )


def snr_ssb(link: LinkConfig) -> SnrReport:
    """SSB SNR at the passband center: exact ratio plus the flat approximation.

    The approximation is B / (8 [cos th + 1/2]^2 + 8/g^2 [cos th + 2] + 6)
    with th = 4 pi^2 phi f_c^2, valid for B d >> 1 and B >> f_c.
    """
    if link.scheme.kind is not ModulationKind.SSB:
        raise ConfigurationError("snr_ssb requires an SSB scheme")
    return _snr_at_center(
        link,
        signal_power_ssb,
        _ssb_noise_terms,
        lambda cth, gamma: 8.0 * (cth + 0.5) ** 2 + 8.0 / gamma**2 * (cth + 2.0) + 6.0,
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
        raise DomainError("response is identically zero (no modulation, or underflow); cannot normalize")
    floor = peak * 1e-30
    return 10.0 * np.log10(np.maximum(power, floor) / peak)
