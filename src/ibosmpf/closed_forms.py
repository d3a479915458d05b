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

:func:`snr_sweep` builds the SNR reports of many operating points at once:
points that share the source and the filter apart from the delay and the
modulation index are evaluated as one :class:`~ibosmpf.config.LinkBatch`,
whose delay, carrier phase, tone and gamma are arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import LinkBatch, LinkConfig
from .constants import K_B, T_STANDARD
from .decomposition import SpectralDecomposition, _LineLags
from .errors import ConfigurationError, DomainError, NoPassbandError
from .modulation import ModulationKind, cyclic_orders, cyclic_series
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
    spectra add to it and are suppressed like sinc(pi B d).  ``delay`` and
    ``carrier_phase`` may be arrays over a batch's points, one per f.
    """
    f = np.asarray(f, dtype=float)
    main = (4.0 + 2.0 * np.cos(2.0 * np.pi * f * delay)) * spectrum.intensity_autoconvolution(f)
    cc_d = spectrum.cross_spectrum(f, delay)
    cc_2d = spectrum.cross_spectrum(f, 2.0 * delay)
    fringe = np.exp(-2j * np.pi * f * delay)
    cross = 4.0 * np.real(
        np.exp(1j * carrier_phase) * (1.0 + fringe) * cc_d
    ) + 2.0 * np.real(np.exp(2j * carrier_phase) * fringe * cc_2d)
    return main + cross


def _shared_arm(link: LinkConfig | LinkBatch, what: str) -> dict:
    """Coefficients {q: M_q} of the modulation both arms share; the arms must also be balanced."""
    m1, m2 = link.arms()
    if m1.keys() != m2.keys() or any(np.any(m1[q] != m2[q]) for q in m1):
        raise ConfigurationError(f"{what} needs identical arms")
    link.require_balanced_arms(what)
    return m1


def _continuum_terms(link: LinkConfig | LinkBatch, arm: dict, f) -> dict:
    """Per cyclic order s: |C_s(v)|^2 times the fringed spectrum at f + s f_m.

    Every order's frequencies go through one fringed spectrum, so each
    cross-spectrum shift is transformed once for all of them.
    """
    f_m = link.scheme.f_m
    x = f_m * (2.0 * np.pi * link.phi * f)  # f_m v
    orders = cyclic_orders(arm)
    shifted = np.stack([f + s * f_m for s in orders])
    fringed = np.real(fringed_noise_spectrum(link.spectrum, link.delay, link.carrier_phase, shifted))
    return {s: np.abs(cyclic_series(arm, s, x)) ** 2 * row for s, row in zip(orders, fringed)}


def _line_weights(link: LinkConfig | LinkBatch, arm: dict, orders, f_m) -> np.ndarray:
    """Line powers |H(v_s)|^2 |C_s(v_s)|^2 at -s f_m per cyclic order s (rows) and f_m.

    C_s depends on f_m and v only through f_m v, so the arm's coefficients
    serve every f_m of an array.  H(v_s) comes from R0 at v_s + t d
    (t = -1, 0, 1), each lag evaluated once per call; those values must be
    Hermitian, else :class:`DomainError`.
    """
    f_m = np.asarray(f_m, dtype=float)
    r0 = _LineLags(link, f_m)
    weights = []
    for s in orders:
        v_line = 2.0 * np.pi * link.phi * (-s * f_m)
        h = _kernel(r0(-s, -1), r0(-s, 0), r0(-s, 1), link.carrier_phase)
        weights.append(np.abs(h) ** 2 * np.abs(cyclic_series(arm, s, f_m * v_line)) ** 2)
    r0.check_hermitian()
    return np.array(weights)


def shared_modulator_decomposition(link: LinkConfig, f_grid: np.ndarray) -> SpectralDecomposition:
    """Line/continuum intensity PSD when both arms share one modulator."""
    arm = _shared_arm(link, "shared-modulator closed form")
    orders = cyclic_orders(arm)
    f_m = link.scheme.f_m
    return SpectralDecomposition(
        frequencies=f_grid,
        continuum=noise_psd_shared(link, f_grid),
        line_frequencies=np.array([-s * f_m for s in orders]),
        line_powers=_line_weights(link, arm, orders, f_m),
        metadata={"path": "closed-form", "f_m": f_m},
    )


def noise_psd_shared(link: LinkConfig, f):
    """Continuum intensity-noise PSD for a shared-modulator scheme."""
    arm = _shared_arm(link, "shared-modulator noise PSD")
    f = np.asarray(f, dtype=float)
    out = np.zeros(f.shape)
    for term in _continuum_terms(link, arm, f).values():
        out += term
    return out if out.ndim else float(out)


def _fundamental_power(link: LinkConfig | LinkBatch, f_m, kind: ModulationKind):
    """Sum of the +-f_m line weights of the shared arm of a ``kind`` link; a scalar f_m gives a float."""
    if link.scheme.kind is not kind:
        raise ConfigurationError(f"signal_power_{kind.value} requires the {kind.value.upper()} scheme")
    arm = _shared_arm(link, "shared-modulator signal power")
    f_m = np.asarray(link.scheme.f_m if f_m is None else f_m, dtype=float)
    minus, plus = _line_weights(link, arm, (1, -1), f_m)
    power = minus + plus
    return power if f_m.ndim else float(power)


def signal_power_ssb(link: LinkConfig, f_m=None):
    """Single-sideband detected signal power at f_m: 2 (gamma/2)^2 |H(v_m)|^2.

    ``f_m`` may be an array; a scalar returns a float.
    """
    return _fundamental_power(link, f_m, ModulationKind.SSB)


def signal_power_dsb(link: LinkConfig, f_m=None):
    """Double-sideband detected signal power at f_m.

    The sum of the +-f_m line weights,
    8 (gamma/2)^2 cos^2(pi f_m v_m) |H(v_m)|^2; see the README notes.
    ``f_m`` may be an array; a scalar returns a float.
    """
    return _fundamental_power(link, f_m, ModulationKind.DSB)


def dsb_fading_null_frequency(phi: float, order: int = 0) -> float:
    """RF frequency of the dispersion-fading null cos(2 pi^2 phi f^2) = 0."""
    if not phi > 0:
        raise NoPassbandError("fading nulls at positive RF need phi > 0")
    if not order >= 0:
        raise ConfigurationError("fading-null order must be >= 0")
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


def _cos_fringe_argument(f_c, phi: float) -> np.ndarray:
    """cos argument 4 pi^2 phi f_c^2 per f_c, accumulated in extended precision."""
    f_c = np.asarray(f_c, dtype=np.longdouble)
    t = np.longdouble(phi) * f_c * f_c
    theta = 4.0 * np.longdouble(np.pi) ** 2 * t
    return np.cos(theta).astype(float)


def _ssb_noise_terms(link: LinkConfig | LinkBatch) -> dict:
    """Noise at +-f_m per cyclic order: the main band and the two images."""
    arm, _ = link.arms()
    terms = _continuum_terms(link, arm, np.asarray(link.scheme.f_m, dtype=float))
    parts = {"main_band": 0, "upconverted_sum": 1, "upconverted_baseband": -1}
    return {name: 2.0 * terms.get(s, 0.0) for name, s in parts.items()}


def _ssb_compact(cth, gamma):
    return 8.0 * (cth + 0.5) ** 2 + 8.0 / gamma**2 * (cth + 2.0) + 6.0


def _snr_forms(kind: ModulationKind):
    """A scheme's (signal, breakdown, compact) closed forms for the SNR.

    ``signal(batch)`` is the power of the batch's tone, ``breakdown(batch)``
    the named noise parts in 1 Hz at +-f_m, and ``compact(cos th, gamma)`` the
    denominator of the rectangular-spectrum estimate B / compact; each works
    on arrays over the batch's points.
    """
    if kind is ModulationKind.SSB:
        return signal_power_ssb, _ssb_noise_terms, _ssb_compact
    from . import pm

    return pm.signal_power_pm, pm._noise_terms, pm._compact


def snr_sweep(links) -> list[SnrReport]:
    """SNR reports at the passband centers of SSB or PM ``links``, in their order.

    Each link's scheme, gamma and passband are checked on its own, in that
    order.  Links that share the spectrum object, phi, scheme kind and
    splitter form one :class:`~ibosmpf.config.LinkBatch`, built once at
    their centers (f_m = f_c) on the unit-PSD copy of the spectrum, so the
    ratio has no PSD level in it; its closed forms are evaluated once, as
    arrays over its points.  Every power is quadratic in the PSD, so the
    reported ones are those unit values times the square of the PSD scale;
    a squared scale that overflows, a gamma whose square underflows and an
    SNR that underflows raise :class:`DomainError`.
    """
    batches: dict = {}
    for i, link in enumerate(links):
        if link.scheme.kind not in (ModulationKind.SSB, ModulationKind.PM):
            raise ConfigurationError(f"scheme: no SNR closed form for {link.scheme.kind.value}")
        gamma = link.scheme.gamma
        if gamma <= 0:
            raise ConfigurationError("gamma: the SNR needs a modulation index > 0")
        link.passband_center()  # raises without a positive passband
        if gamma**2 == 0:  # the compact form divides by it
            raise DomainError(f"gamma = {gamma:g} underflows: gamma**2 is 0")
        # the same spectrum object: a bandwidth sweep's points each have their own
        key = (id(link.spectrum), link.phi, link.scheme.kind, link.interferometer.arm_ratio_k)
        batches.setdefault(key, []).append(i)
    reports = [None] * len(links)
    for indices in batches.values():
        for i, report in zip(indices, _batch_reports([links[i] for i in indices])):
            reports[i] = report
    return reports


def _batch_reports(links) -> list[SnrReport]:
    """One :class:`SnrReport` per link of one batch, at its passband center."""
    spectrum = links[0].spectrum
    unit = LinkBatch(links, spectrum.with_unit_scale())
    signal, breakdown, compact = _snr_forms(unit.scheme.kind)
    scale = spectrum.total_power() / unit.spectrum.total_power()
    power_scale = scale * scale
    if not math.isfinite(power_scale):
        raise DomainError(f"squared PSD level overflows: ({scale:g} W/Hz)**2 is not finite")

    f_c = unit.scheme.f_m
    gamma = unit.scheme.gamma
    unit_signal = signal(unit)
    unit_terms = breakdown(unit)
    snr_linear = unit_signal / sum(unit_terms.values())
    if isinstance(spectrum, RectangularSpectrum):
        with np.errstate(over="ignore"):  # 1/gamma**2 may overflow; the estimate then underflows below
            approx = spectrum.b / compact(_cos_fringe_argument(f_c, unit.phi), gamma)
    else:
        approx = snr_linear
    valid = (snr_linear > 0) & (approx > 0)
    if not np.all(valid):
        i = int(np.argmin(valid))
        raise DomainError(
            f"SNR underflows to zero at the operating point f_c = {f_c[i]:g} Hz, gamma = {gamma[i]:g}"
        )

    columns = {name: value.tolist() for name, value in unit_terms.items()}  # Python floats
    rows = zip(f_c.tolist(), snr_linear.tolist(), unit_signal.tolist(), approx.tolist())
    reports = []
    for i, (f, snr, tone, estimate) in enumerate(rows):
        terms = {name: column[i] * power_scale for name, column in columns.items()}
        reports.append(
            SnrReport(
                scheme=unit.scheme.kind.value,
                center_frequency=f,
                snr_linear=snr,
                snr_db_hz=10.0 * math.log10(snr),
                signal_power=tone * power_scale,
                noise_psd_at_signal=sum(terms.values()),
                noise_breakdown=terms,
                snr_approx_linear=estimate,
                snr_approx_db_hz=10.0 * math.log10(estimate),
            )
        )
    return reports


def snr_ssb(link: LinkConfig) -> SnrReport:
    """SSB SNR at the passband center: exact ratio plus the flat approximation.

    The approximation is B / (8 [cos th + 1/2]^2 + 8/g^2 [cos th + 2] + 6)
    with th = 4 pi^2 phi f_c^2, valid for B d >> 1 and B >> f_c.  The
    one-point case of :func:`snr_sweep`.
    """
    if link.scheme.kind is not ModulationKind.SSB:
        raise ConfigurationError("snr_ssb requires an SSB scheme")
    return snr_sweep([link])[0]


def noise_figure(p_in_w: float, snr_db_hz: float) -> float:
    """NF = 10 lg[(P_in / k_B T_s) / SNR] with T_s = 290 K."""
    if not p_in_w > 0:
        raise ConfigurationError("input RF power p_in_w must be positive")
    return 10.0 * math.log10(p_in_w / (K_B * T_STANDARD)) - snr_db_hz


def frequency_response_sweep(
    link: LinkConfig,
    f_grid: np.ndarray,
    normalize_db: bool = True,
) -> np.ndarray:
    """Signal power versus RF frequency for the configured scheme.

    Returns dB relative to the curve maximum when ``normalize_db`` is set,
    otherwise absolute powers.  An unmodulated link, and a DSB, SSB or PM
    link at gamma 0, raise :class:`ConfigurationError`.
    """
    f_grid = np.asarray(f_grid, dtype=float)
    kind = link.scheme.kind
    if kind is ModulationKind.UNMODULATED:
        raise ConfigurationError("scheme: an unmodulated link has no frequency response")
    if kind is not ModulationKind.CUSTOM and link.scheme.gamma <= 0:
        raise ConfigurationError(f"gamma: the {kind.value} response needs a modulation index > 0")
    if kind is ModulationKind.SSB:
        power = signal_power_ssb(link, f_grid)
    elif kind is ModulationKind.DSB:
        power = signal_power_dsb(link, f_grid)
    elif kind is ModulationKind.PM:
        from .pm import signal_power_pm

        power = signal_power_pm(link, f_grid)
    else:
        from .engine import fundamental_line_power

        power = fundamental_line_power(link, f_grid)
    if not normalize_db:
        return power
    peak = power.max()
    if peak <= 0:
        raise DomainError("response is identically zero (no modulation, or underflow); cannot normalize")
    floor = peak * 1e-30
    return 10.0 * np.log10(np.maximum(power, floor) / peak)
