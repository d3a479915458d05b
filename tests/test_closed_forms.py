import math
from dataclasses import replace

import numpy as np
import pytest

from ibosmpf import (
    ConfigurationError,
    DomainError,
    RectangularSpectrum,
    dsb_fading_null_frequency,
    frequency_response_sweep,
    fringed_noise_spectrum,
    interference_kernel,
    noise_figure,
    noise_psd_shared,
    passband_shape,
    reference_link,
    signal_power_dsb,
    signal_power_ssb,
    snr_ssb,
)
from ibosmpf.engine import fundamental_line_power
from ibosmpf.modulation import polarization_modulator_scheme
from ibosmpf.pm import signal_power_pm
from ibosmpf.units import dbm_to_watts

B = 399.30733219562956e9  # 3.2 nm at 1550 nm
D_BENCH = 79.4e-12
PHI_BENCH = 1.2614182693005488e-21
# frozen: compact-form SNR at the bench operating points
SNR_APPROX_32 = 94.84395898610626
SNR_APPROX_64 = 97.85425894274607
# frozen: fading null sqrt(1 / (4 pi phi))
F_NULL = 7942651541.148734


def _leading_fringe(spectrum, delay, f):
    """In-test oracle: the leading fringed term [4 + 2 cos(2 pi f d)] S0(f),
    without the delay-offset cross spectra."""
    return (4.0 + 2.0 * np.cos(2.0 * np.pi * f * delay)) * spectrum.intensity_autoconvolution(f)


def _flat_ssb_power(link):
    """In-test oracle: the flat passband power 2 (gamma/2)^2 R0(0)^2."""
    return 2.0 * (link.scheme.gamma / 2.0) ** 2 * link.spectrum.total_power() ** 2


@pytest.fixture(scope="module")
def ssb():
    return reference_link()


@pytest.fixture(scope="module")
def dsb():
    return reference_link(scheme_kind="dsb")


# --- interference kernel ---------------------------------------------------


def test_kernel_collapses_without_delay(ssb):
    spec = ssb.spectrum
    for x in (0.0, 3e-12, -11e-12):
        h = interference_kernel(spec, 0.0, 0.0, x)
        assert h == pytest.approx(4.0 * spec.autocorrelation(x), rel=1e-12)


def test_kernel_at_zero_lag_suppressed_fringe(ssb):
    h0 = interference_kernel(ssb.spectrum, ssb.delay, ssb.carrier_phase, 0.0)
    assert abs(h0) == pytest.approx(2.0 * ssb.spectrum.total_power(), rel=2e-2)


def test_kernel_hermitian(ssb):
    rng = np.random.default_rng(7)
    xs = rng.uniform(-300e-12, 300e-12, 20)
    h_plus = interference_kernel(ssb.spectrum, ssb.delay, ssb.carrier_phase, xs)
    h_minus = interference_kernel(ssb.spectrum, ssb.delay, ssb.carrier_phase, -xs)
    np.testing.assert_allclose(h_minus, np.conj(h_plus), rtol=1e-12, atol=1e-3)


# --- fringed noise-shaping spectrum -----------------------------------------


def test_fringed_spectrum_approx_anchors(ssb):
    spec, d = ssb.spectrum, ssb.delay
    s0 = spec.intensity_autoconvolution
    approx = lambda f: float(_leading_fringe(spec, d, f))
    assert approx(0.0) == pytest.approx(6.0 * s0(0.0), rel=1e-12)
    f_half = 1.0 / (2.0 * d)
    assert approx(f_half) == pytest.approx(2.0 * s0(f_half), rel=1e-9)
    # bench spot value, against the independently frozen number
    spec400 = RectangularSpectrum(n0=1.0, b=400e9)
    got = float(_leading_fringe(spec400, d, 10e9))
    assert got == pytest.approx(1772902509703.5142, rel=1e-12)
    assert got == pytest.approx(4.547 * 390e9, rel=1e-3)


def test_fringed_spectrum_exact_close_to_approx(ssb):
    f = np.linspace(-1.2 * B, 1.2 * B, 57)
    exact = fringed_noise_spectrum(ssb.spectrum, ssb.delay, ssb.carrier_phase, f)
    approx = _leading_fringe(ssb.spectrum, ssb.delay, f)
    assert np.max(np.abs(exact - approx)) < 0.05 * np.max(approx)


def test_fringed_spectrum_exact_against_lag_transform():
    # moderate bandwidth so the truncated lag-domain oracle converges
    link = reference_link(bandwidth_nm=0.4)
    spec, d, phase = link.spectrum, link.delay, link.carrier_phase
    u = np.linspace(-12e-9, 12e-9, 2**18 + 1)
    h = interference_kernel(spec, d, phase, u)
    for f in (0.0, 5e9, 20e9):
        direct = np.trapezoid(np.abs(h) ** 2 * np.exp(-2j * np.pi * f * u), u).real
        got = float(fringed_noise_spectrum(spec, d, phase, f))
        assert got == pytest.approx(direct, rel=5e-3)


# --- DSB ---------------------------------------------------------------------


def test_dsb_power_at_dc_conventions(dsb):
    gamma = dsb.scheme.gamma
    h0 = interference_kernel(dsb.spectrum, dsb.delay, dsb.carrier_phase, 0.0)
    assert signal_power_dsb(dsb, 0.0) == pytest.approx(
        8.0 * (gamma / 2) ** 2 * abs(h0) ** 2, rel=1e-12
    )


def test_dsb_fading_null(dsb):
    f_null = dsb_fading_null_frequency(dsb.phi)
    assert f_null == pytest.approx(F_NULL, rel=1e-9)
    assert abs(f_null - 7.95e9) < 0.05e9
    peak = signal_power_dsb(dsb, 4e9)
    assert signal_power_dsb(dsb, f_null) < 1e-20 * peak


# README formulas, as prefactors of (gamma/2)^2 |H(v_m)|^2
_README_SIGNAL = {
    "ssb": (signal_power_ssb, lambda f_m, v_m: 2.0),
    "dsb": (signal_power_dsb, lambda f_m, v_m: 8.0 * np.cos(np.pi * f_m * v_m) ** 2),
}


@pytest.mark.parametrize("kind", sorted(_README_SIGNAL))
def test_signal_power_matches_readme_formula(kind):
    power, prefactor = _README_SIGNAL[kind]
    link = reference_link(scheme_kind=kind)
    f_m = np.linspace(2e9, 16e9, 57)
    v_m = 2.0 * np.pi * link.phi * f_m
    h = interference_kernel(link.spectrum, link.delay, link.carrier_phase, v_m)
    want = prefactor(f_m, v_m) * (link.scheme.gamma / 2.0) ** 2 * np.abs(h) ** 2
    np.testing.assert_allclose(power(link, f_m), want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("f_m", [1e9, 4e9, 6.5e9, 12e9])
def test_dsb_ssb_fading_ratio(f_m):
    dsb = reference_link(scheme_kind="dsb")
    ssb = reference_link(scheme_kind="ssb")
    v_m = 2 * math.pi * dsb.phi * f_m
    fading = math.cos(math.pi * f_m * v_m) ** 2
    p_ssb = signal_power_ssb(ssb, f_m)
    assert signal_power_dsb(dsb, f_m) / p_ssb == pytest.approx(4.0 * fading, rel=1e-9)


# --- SSB ---------------------------------------------------------------------


def test_ssb_zero_gamma_gives_zero_signal():
    link = reference_link(gamma=0.0)
    assert signal_power_ssb(link, 10e9) == 0.0


def test_ssb_exact_vs_flat_at_center_strong_suppression():
    # B d >> 1 regime: exact and flat passband powers converge
    link = reference_link(bandwidth_nm=32.0, delay_s=794e-12)
    f_c = link.passband_center()
    exact = signal_power_ssb(link, f_c)
    assert exact == pytest.approx(_flat_ssb_power(link), rel=1e-3)


def test_ssb_detuned_power_traces_passband_shape(ssb):
    # the exact power carries interferometric cross terms of order
    # sinc(pi B d) in amplitude, so the sinc^2 trace holds to ~0.5 dB
    f_c = ssb.passband_center()
    detunings = np.linspace(-250e6, 250e6, 11)
    exact = np.array([signal_power_ssb(ssb, f_c + det) for det in detunings])
    shape = passband_shape(ssb, detunings)
    ratio = exact / exact[5]
    np.testing.assert_allclose(ratio, shape / shape[5], rtol=0.2)


# --- passband shape -----------------------------------------------------------


def test_passband_shape_anchors(ssb):
    assert passband_shape(ssb, 0.0) == 1.0
    null = 1.0 / (2.0 * math.pi * ssb.spectrum.b * ssb.phi)
    assert passband_shape(ssb, null) == pytest.approx(0.0, abs=1e-12)
    wide = passband_shape(ssb, null / 2)
    narrow = passband_shape(reference_link(bandwidth_nm=6.4), null / 4)
    assert narrow == pytest.approx(wide, rel=1e-9)


# --- noise PSD and SNR ---------------------------------------------------------


def test_noise_psd_unmodulated_reduces_to_fringed_spectrum():
    link = reference_link(gamma=0.0)
    for f in (3e9, 10e9):
        assert noise_psd_shared(link, f) == pytest.approx(
            float(
                fringed_noise_spectrum(link.spectrum, link.delay, link.carrier_phase, f)
            ),
            rel=1e-12,
        )


def test_snr_ssb_bench_values(ssb):
    report = snr_ssb(ssb)
    assert report.snr_approx_db_hz == pytest.approx(SNR_APPROX_32, abs=1e-9)
    assert report.snr_approx_db_hz == pytest.approx(94.9, abs=0.5)
    assert report.snr_db_hz == pytest.approx(report.snr_approx_db_hz, abs=0.2)
    report64 = snr_ssb(reference_link(bandwidth_nm=6.4))
    assert report64.snr_approx_db_hz == pytest.approx(SNR_APPROX_64, abs=1e-9)
    assert report64.snr_approx_db_hz == pytest.approx(97.9, abs=0.5)


def test_noise_power_ssb_breakdown(ssb):
    terms = snr_ssb(ssb).noise_breakdown
    assert set(terms) == {"main_band", "upconverted_sum", "upconverted_baseband"}
    f_c = ssb.passband_center()
    total = 2.0 * noise_psd_shared(ssb.with_modulation_frequency(f_c), f_c)
    assert sum(terms.values()) == pytest.approx(total, rel=1e-12)


def test_snr_breakdown_consistency(ssb):
    report = snr_ssb(ssb)
    assert sum(report.noise_breakdown.values()) == pytest.approx(
        report.noise_psd_at_signal, rel=1e-12
    )
    assert report.snr_linear == pytest.approx(
        report.signal_power / report.noise_psd_at_signal, rel=1e-12
    )


def test_snr_gamma_limit_algebra():
    # large gamma: approx SNR tends to B / (8 [cos+1/2]^2 + 6)
    link = reference_link(gamma=1.5)
    report = snr_ssb(link)
    from ibosmpf.closed_forms import _cos_fringe_argument

    cth = _cos_fringe_argument(report.center_frequency, link.phi)
    limit = link.spectrum.b / (8.0 * (cth + 0.5) ** 2 + 6.0)
    full = link.spectrum.b / (
        8.0 * (cth + 0.5) ** 2 + 8.0 / 1.5**2 * (cth + 2.0) + 6.0
    )
    assert report.snr_approx_linear == pytest.approx(full, rel=1e-12)
    assert abs(report.snr_approx_linear - limit) / limit < 0.65


def test_snr_requires_passband():
    with pytest.raises(DomainError):
        snr_ssb(reference_link(delay_s=-79.4e-12, f_m=10e9))


def test_snr_scale_invariance_bitwise():
    reports = [snr_ssb(reference_link(n0=alpha)) for alpha in (1e-3, 1.0, 1e3)]
    assert reports[0].snr_linear == reports[1].snr_linear == reports[2].snr_linear
    assert (
        reports[0].snr_approx_linear
        == reports[1].snr_approx_linear
        == reports[2].snr_approx_linear
    )
    # reported powers do scale (by alpha^2)
    assert reports[2].signal_power == pytest.approx(1e6 * reports[1].signal_power, rel=1e-9)


def test_snr_ssb_on_tabulated_spectrum():
    # same physics through the tabulated model (numeric transforms)
    from ibosmpf.spectrum import tabulate

    rect = reference_link()
    tab = rect.with_spectrum(tabulate(rect.spectrum, 2049))
    r_rect = snr_ssb(rect)
    r_tab = snr_ssb(tab)
    assert r_tab.snr_db_hz == pytest.approx(r_rect.snr_db_hz, abs=0.1)


@pytest.mark.parametrize("kind, shifts", [("ssb", 3), ("pm", 5)])
def test_tabulated_report_transforms_each_shift_once(monkeypatch, kind, shifts):
    # every order's frequencies share one call per shift (0, +-d, +-2d), and
    # a tabulated source makes one FFT correlation per distinct shift of a call
    from ibosmpf.pm import snr_pm
    from ibosmpf.spectrum import TabulatedSpectrum, tabulate

    link = reference_link(scheme_kind=kind, gamma=0.39 if kind == "ssb" else 0.41)
    link = link.with_spectrum(tabulate(link.spectrum, 1024))
    seen = []
    original = TabulatedSpectrum.cross_spectrum

    def counting(self, f, shift):
        seen.extend(np.unique(np.broadcast_to(shift, np.shape(f))))
        return original(self, f, shift)

    monkeypatch.setattr(TabulatedSpectrum, "cross_spectrum", counting)
    (snr_ssb if kind == "ssb" else snr_pm)(link)
    assert len(seen) == len(set(seen)) == shifts


def test_snr_periodicity_in_fringe_argument():
    base = reference_link()
    f_c = base.passband_center()
    phi2 = base.phi / 4.0
    twin = replace(
        base,
        dispersion=replace(base.dispersion, phi=phi2),
        interferometer=replace(base.interferometer, delay_d=2.0 * math.pi * phi2 * 2.0 * f_c),
    )
    assert twin.passband_center() == pytest.approx(2.0 * f_c, rel=1e-12)
    assert snr_ssb(twin).snr_approx_linear == snr_ssb(base).snr_approx_linear


# --- noise figure -----------------------------------------------------------------


def test_noise_figure_bench():
    nf = noise_figure(dbm_to_watts(6.0), 94.9)
    assert nf == pytest.approx(85.0751871942281, abs=1e-9)
    assert nf == pytest.approx(85.0, abs=1.5)


def test_noise_figure_linearity():
    p = dbm_to_watts(6.0)
    assert noise_figure(p, 104.9) == pytest.approx(noise_figure(p, 94.9) - 10.0, abs=1e-12)
    assert noise_figure(2 * p, 94.9) == pytest.approx(
        noise_figure(p, 94.9) + 10 * math.log10(2), abs=1e-12
    )


# --- balanced-arm assumption --------------------------------------------------------


def _unbalanced(kind):
    link = reference_link(scheme_kind=kind, gamma=0.41)
    return replace(link, interferometer=replace(link.interferometer, arm_ratio_k=0.5))


def _balanced_arm_forms():
    from ibosmpf import freq_domain, pm
    from ibosmpf.closed_forms import shared_modulator_decomposition

    grid = np.array([4e9, 10e9])
    return {
        "signal_power_ssb": lambda: signal_power_ssb(_unbalanced("ssb")),
        "signal_power_dsb": lambda: signal_power_dsb(_unbalanced("dsb"), 4e9),
        "noise_psd_shared": lambda: noise_psd_shared(_unbalanced("ssb"), 10e9),
        "snr_ssb": lambda: snr_ssb(_unbalanced("ssb")),
        "response_ssb": lambda: frequency_response_sweep(_unbalanced("ssb"), grid),
        "response_dsb": lambda: frequency_response_sweep(_unbalanced("dsb"), grid),
        "response_pm": lambda: frequency_response_sweep(_unbalanced("pm"), grid),
        "shared_modulator_decomposition": lambda: shared_modulator_decomposition(_unbalanced("dsb"), grid),
        "signal_power_pm": lambda: pm.signal_power_pm(_unbalanced("pm")),
        "pm_line_weights": lambda: pm.pm_line_weights(_unbalanced("pm")),
        "pm_continuum": lambda: pm.pm_continuum(_unbalanced("pm"), 10e9),
        "pm_continuum_grouped": lambda: pm.pm_continuum_grouped(_unbalanced("pm"), 10e9),
        "pm_decomposition": lambda: pm.pm_decomposition(_unbalanced("pm"), grid),
        "snr_pm": lambda: pm.snr_pm(_unbalanced("pm")),
        "freq_domain_signal_power": lambda: freq_domain.freq_domain_signal_power(_unbalanced("ssb")),
        "freq_domain_noise_psd": lambda: freq_domain.freq_domain_noise_psd(_unbalanced("ssb"), 10e9),
    }


@pytest.mark.parametrize("name", list(_balanced_arm_forms()))
def test_balanced_arm_forms_reject_unbalanced_splitter(name):
    with pytest.raises(ConfigurationError, match="assumes balanced arms; interferometer.arm_ratio_k is 0.5"):
        _balanced_arm_forms()[name]()


def test_engine_takes_the_unbalanced_splitter():
    # k = 0.5 scales the delayed field: the engine's tone differs from the
    # balanced closed form, which is why that form must refuse the link
    balanced = reference_link(scheme_kind="ssb", gamma=0.41)
    engine_power = fundamental_line_power(_unbalanced("ssb"), balanced.scheme.f_m)
    assert engine_power < 0.5 * signal_power_ssb(balanced)


# --- response sweeps ----------------------------------------------------------------


def test_dsb_passband_at_null_attenuated_20db():
    # tune the passband onto the fading null and compare with the 4 GHz one
    dsb = reference_link(scheme_kind="dsb")
    p4 = signal_power_dsb(dsb.with_delay_for_center(4e9), 4e9)
    p8 = signal_power_dsb(dsb.with_delay_for_center(8e9), 8e9)
    assert 10 * math.log10(p4 / p8) >= 20.0


def test_dsb_sweep_shows_deep_notch():
    grid = np.linspace(2e9, 16e9, 701)
    link = reference_link(scheme_kind="dsb").with_delay_for_center(4e9)
    curve = frequency_response_sweep(link, grid)
    near_null = curve[np.abs(grid - F_NULL) < 0.1e9]
    passband_4g = curve[np.argmin(np.abs(grid - 4e9))]
    assert near_null.min() <= passband_4g - 20.0


def test_ssb_peaks_flat_across_passbands():
    # flat-form peaks are exactly equal; exact peaks ripple at the
    # interferometric-cross-term level (< 0.4 dB at this bandwidth)
    exact, flat = [], []
    for f_c in (4e9, 7e9, 10e9, 13e9, 16e9):
        link = reference_link().with_delay_for_center(f_c)
        exact.append(signal_power_ssb(link, f_c))
        flat.append(_flat_ssb_power(link))
    flat_db = 10 * np.log10(np.asarray(flat))
    exact_db = 10 * np.log10(np.asarray(exact))
    assert flat_db.max() - flat_db.min() < 1e-9
    assert exact_db.max() - exact_db.min() < 0.4


def test_single_point_sweep():
    link = reference_link()
    out = frequency_response_sweep(link, np.array([10e9]))
    assert out.shape == (1,) and out[0] == 0.0


def test_response_rejects_unmodulated():
    with pytest.raises(ConfigurationError):
        frequency_response_sweep(reference_link(scheme_kind="unmodulated"), np.array([1e9, 2e9]))


def _custom_link():
    base = reference_link().with_delay_for_center(4e9)
    return replace(base, scheme=polarization_modulator_scheme(0.41, base.scheme.f_m))


_SCALAR_POWER = {
    "ssb": (reference_link, signal_power_ssb),
    "dsb": (lambda: reference_link(scheme_kind="dsb"), signal_power_dsb),
    "pm": (lambda: reference_link(scheme_kind="pm", gamma=0.41), signal_power_pm),
    "custom": (_custom_link, fundamental_line_power),
}


@pytest.mark.parametrize("kind", sorted(_SCALAR_POWER))
def test_sweep_matches_scalar_loop(kind):
    make_link, scalar_power = _SCALAR_POWER[kind]
    link = make_link()
    grid = np.linspace(2e9, 16e9, 57)
    swept = frequency_response_sweep(link, grid, normalize_db=False)
    points = [scalar_power(link, f) for f in grid]
    assert all(isinstance(p, float) for p in points)
    np.testing.assert_allclose(swept, points, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("f_m", [-1e9, math.nan])
def test_custom_sweep_rejects_invalid_frequency(f_m):
    with pytest.raises(ConfigurationError):
        frequency_response_sweep(_custom_link(), np.array([2e9, f_m]))


def _powers_on_link(link):
    """In-test oracle: signal and noise parts evaluated on the link itself,
    not derived from the unit-PSD copy."""
    from ibosmpf import closed_forms, pm

    f_c = link.passband_center()
    tuned = link.with_modulation_frequency(f_c)
    if link.scheme.kind.value == "ssb":
        parts = closed_forms._ssb_noise_terms(tuned)
        return signal_power_ssb(tuned, f_c), sum(parts.values()), parts
    parts = {name: 2.0 * v for name, v in pm.pm_continuum_grouped(tuned, f_c).items()}
    return pm.signal_power_pm(tuned, f_c), sum(parts.values()), parts


def _report(link):
    from ibosmpf.pm import snr_pm

    return (snr_ssb if link.scheme.kind.value == "ssb" else snr_pm)(link)


@pytest.mark.parametrize("kind", ["ssb", "pm"])
@pytest.mark.parametrize("gamma", [0.2, 0.41, 1.2])
@pytest.mark.parametrize("delay", [50e-12, 79.4e-12, 120e-12])  # f_c about 8, 10 and 12 GHz
@pytest.mark.parametrize("n0", [1.0, 3.7e-5, 1e3])
def test_reported_powers_match_link_evaluation(kind, gamma, delay, n0):
    link = reference_link(scheme_kind=kind, gamma=gamma, delay_s=delay, n0=n0)
    report = _report(link)
    signal, total, parts = _powers_on_link(link)
    assert report.signal_power == pytest.approx(signal, rel=1e-12, abs=0.0)
    assert report.noise_psd_at_signal == pytest.approx(total, rel=1e-12, abs=0.0)
    assert report.noise_breakdown.keys() == parts.keys()
    for name, value in parts.items():
        assert report.noise_breakdown[name] == pytest.approx(value, rel=1e-12, abs=0.0), name


@pytest.mark.parametrize("kind", ["ssb", "pm"])
def test_reported_powers_match_link_evaluation_tabulated(kind):
    from ibosmpf.spectrum import TabulatedSpectrum, tabulate

    link = reference_link(scheme_kind=kind, gamma=0.41, n0=3.7e-5)
    s = link.spectrum
    grid = np.linspace(-s.b, s.b, 1024)
    gaussian = TabulatedSpectrum(grid=grid, values=3.7e-5 * np.exp(-((grid / (0.4 * s.b)) ** 2)))
    for spectrum, entry_scale in ((tabulate(s, 1024), None), (gaussian, "total")):
        model = link.with_spectrum(spectrum)
        report = _report(model)
        signal, total, parts = _powers_on_link(model)
        assert report.signal_power == pytest.approx(signal, rel=1e-12, abs=0.0)
        assert report.noise_psd_at_signal == pytest.approx(total, rel=1e-12, abs=0.0)
        for name, value in parts.items():
            # On the Gaussian source the PM interferometric cross part is a
            # residue of cancelling terms, about 1e-7 of the total:
            # a 1-ulp change of the PSD samples moves it by about 1e-10 of
            # itself, so each part is held to 1e-12 of the total there.
            tol = 1e-12 * (abs(total) if entry_scale == "total" else abs(value))
            assert abs(report.noise_breakdown[name] - value) <= tol, name


def test_psd_level_overflow_is_a_domain_error():
    with pytest.raises(DomainError, match="squared PSD level overflows"):
        snr_ssb(reference_link(n0=1e200))


def test_snr_ssb_evaluates_signal_and_noise_once(monkeypatch):
    from collections import Counter

    from ibosmpf import closed_forms

    calls = Counter()
    for name in ("signal_power_ssb", "_ssb_noise_terms"):

        def counted(*args, _original=getattr(closed_forms, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(closed_forms, name, counted)
    closed_forms.snr_ssb(reference_link(n0=3.7e-5))
    assert calls == {"signal_power_ssb": 1, "_ssb_noise_terms": 1}
