import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import j0 as scipy_j0
from scipy.special import j1 as scipy_j1

from ibosmpf import ConfigurationError, reference_link
from ibosmpf.closed_forms import _cos_fringe_argument
from ibosmpf.pm import (
    pm_continuum,
    pm_continuum_grouped,
    pm_decomposition,
    pm_line_weights,
    signal_power_pm,
    snr_pm,
)

GAMMA = 0.41
# frozen independent oracle: J1^2 B / [(1+J0^2)(1+J0^2+4 J1^2) + 2 J0^2 c + 4 J1^2 c^2]
# evaluated with scipy Bessels, flat self-convolution, bench parameters
SNR_PM_EXACT_FLAT = 95.51347511040382
SNR_PM_COMPACT = 98.0971101053724


@pytest.fixture(scope="module")
def link():
    return reference_link(scheme_kind="pm", gamma=GAMMA)


def _dominant_continuum(link, f):
    """In-test oracle: dominant-term continuum (drops fourth-order Bessel
    pieces and every interferometric cross spectrum)."""
    j0, j1 = scipy_j0(GAMMA), scipy_j1(GAMMA)
    f_m = link.scheme.f_m
    s0 = link.spectrum.intensity_autoconvolution
    v = 2 * np.pi * link.phi * f
    c = np.cos(2 * np.pi * f_m * v)
    main = ((1 + j0**2) ** 2 + 4 * j0**2 * j1**2 * c) * s0(f)
    fringe = 2 * np.cos(2 * np.pi * f * link.delay) * (j0**2 + 2 * j1**2 * c) * s0(f)
    upconv = 2 * j1**2 * (j0**2 * (1 - c) + 1) * (s0(f - f_m) + s0(f + f_m))
    return main + fringe + upconv


def _printed_signal(link, f_m):
    """In-test oracle: the dominant-term signal power
    8 J0^2 J1^2 sin^2(pi f_m v_m) |R0(v_m)|^2 + 2 J1^2 [|R0(v_m + d)|^2 + |R0(v_m - d)|^2]."""
    j0, j1 = scipy_j0(GAMMA), scipy_j1(GAMMA)
    v_m = 2 * np.pi * link.phi * f_m
    r0 = link.spectrum.autocorrelation
    lowpass = 8 * j0**2 * j1**2 * math.sin(math.pi * f_m * v_m) ** 2 * abs(r0(v_m)) ** 2
    bandpass = 2 * j1**2 * (abs(r0(v_m + link.delay)) ** 2 + abs(r0(v_m - link.delay)) ** 2)
    return lowpass + bandpass


def _flat_noise_power(link, f_c):
    """In-test oracle: the flat-spectrum noise estimate
    2 [4 J1^2 cos^2 th + 2 J0^2 cos th + (1 + J0^2)(1 + J0^2 + 4 J1^2)] S0(0)
    with th = 4 pi^2 phi f_c^2."""
    j0, j1 = scipy_j0(GAMMA), scipy_j1(GAMMA)
    cth = _cos_fringe_argument(f_c, link.phi)
    bracket = 4 * j1**2 * cth**2 + 2 * j0**2 * cth + (1 + j0**2) * (1 + j0**2 + 4 * j1**2)
    return 2 * bracket * float(link.spectrum.intensity_autoconvolution(0.0))


def test_continuum_matches_dominant_terms(link):
    link = link.with_modulation_frequency(link.passband_center())
    f = np.linspace(-30e9, 30e9, 21)
    got = pm_continuum(link, f)
    want = np.array([_dominant_continuum(link, x) for x in f])
    np.testing.assert_allclose(got, want, rtol=0.02)


def test_line_weights_match_dominant_terms(link):
    link = link.with_modulation_frequency(link.passband_center())
    j0, j1 = scipy_j0(GAMMA), scipy_j1(GAMMA)
    weights = pm_line_weights(link)
    f_m = link.scheme.f_m
    r0 = link.spectrum.autocorrelation
    v_m = 2 * np.pi * link.phi * f_m
    c_m = math.cos(2 * np.pi * f_m * v_m)
    want_side = 2 * j0**2 * j1**2 * abs(r0(v_m)) ** 2 * (1 - c_m) + j1**2 * (
        abs(r0(v_m + link.delay)) ** 2 + abs(r0(v_m - link.delay)) ** 2
    )
    assert weights[1] == pytest.approx(want_side, rel=0.05)
    assert weights[1] == pytest.approx(weights[-1], rel=1e-9)
    p = link.spectrum.total_power()
    want_dc = ((j0**2 + 2 * j1**2) + 1) ** 2 * p**2
    assert weights[0] == pytest.approx(want_dc, rel=0.05)


def test_lowpass_term_vanishes_at_low_frequency(link):
    # sin^2(pi f_m v_m) kills the lowpass lobe; what is left at f_m -> 0 is
    # only the fringe-tail bandpass leakage 2 J1^2 [|R0(d)|^2 + |R0(-d)|^2]
    j0, j1 = scipy_j0(GAMMA), scipy_j1(GAMMA)
    f_m = 1e5
    v_m = 2 * np.pi * link.phi * f_m
    r0 = link.spectrum.autocorrelation
    lowpass = 8 * j0**2 * j1**2 * math.sin(math.pi * f_m * v_m) ** 2 * abs(r0(v_m)) ** 2
    leak = 2 * j1**2 * (abs(r0(v_m + link.delay)) ** 2 + abs(r0(v_m - link.delay)) ** 2)
    peak = _printed_signal(link, link.passband_center())
    assert lowpass < 1e-12 * peak
    assert _printed_signal(link, f_m) == pytest.approx(leak, rel=1e-9)


def test_signal_power_exact_close_to_printed_in_band(link):
    # near the lowpass lobe and the passband the dropped cross terms are
    # small; in deep stopband dips they set the floor, so no tight bound
    for f_m in (4e9, link.passband_center()):
        exact = signal_power_pm(link, f_m)
        assert exact == pytest.approx(_printed_signal(link, f_m), rel=0.05)
    stop = signal_power_pm(link, 14e9)
    assert stop == pytest.approx(_printed_signal(link, 14e9), rel=1.0)


def test_signal_power_at_center_flat_value(link):
    f_c = link.passband_center()
    j1 = scipy_j1(GAMMA)
    flat = 2 * j1**2 * link.spectrum.total_power() ** 2
    assert signal_power_pm(link, f_c) == pytest.approx(flat, rel=0.05)


def test_noise_power_flat_vs_exact(link):
    f_c = link.passband_center()
    link_c = link.with_modulation_frequency(f_c)
    exact = 2.0 * float(pm_continuum(link_c, f_c))
    assert exact == pytest.approx(_flat_noise_power(link_c, f_c), rel=0.03)


def test_snr_pm_bench_values(link):
    report = snr_pm(link)
    assert report.snr_db_hz == pytest.approx(SNR_PM_EXACT_FLAT, abs=0.03)
    assert report.snr_approx_db_hz == pytest.approx(SNR_PM_COMPACT, abs=1e-9)
    # the compact estimate overshoots the exact ratio at this point
    assert report.snr_approx_db_hz - report.snr_db_hz == pytest.approx(2.58, abs=0.1)


def test_snr_pm_breakdown_and_ratio(link):
    report = snr_pm(link)
    assert sum(report.noise_breakdown.values()) == pytest.approx(
        report.noise_psd_at_signal, rel=1e-12
    )
    assert report.snr_linear == pytest.approx(
        report.signal_power / report.noise_psd_at_signal, rel=1e-9
    )


def test_snr_pm_bandwidth_doubling():
    r32 = snr_pm(reference_link(scheme_kind="pm", gamma=GAMMA, bandwidth_nm=3.2))
    r64 = snr_pm(reference_link(scheme_kind="pm", gamma=GAMMA, bandwidth_nm=6.4))
    step_db = 10 * math.log10(2.0)
    assert r64.snr_approx_db_hz - r32.snr_approx_db_hz == pytest.approx(step_db, abs=1e-9)
    assert r64.snr_db_hz - r32.snr_db_hz == pytest.approx(step_db, abs=0.2)


def test_snr_pm_scale_invariance_bitwise():
    reports = [
        snr_pm(reference_link(scheme_kind="pm", gamma=GAMMA, n0=alpha))
        for alpha in (1e-3, 1.0, 1e3)
    ]
    assert reports[0].snr_linear == reports[1].snr_linear == reports[2].snr_linear
    assert (
        reports[0].snr_approx_linear
        == reports[1].snr_approx_linear
        == reports[2].snr_approx_linear
    )


def test_snr_pm_periodicity():
    base = reference_link(scheme_kind="pm", gamma=GAMMA)
    f_c = base.passband_center()
    phi2 = base.phi / 4.0
    twin = replace(
        base,
        dispersion=replace(base.dispersion, phi=phi2),
        interferometer=replace(base.interferometer, delay_d=2 * math.pi * phi2 * 2 * f_c),
    )
    assert snr_pm(twin).snr_approx_linear == snr_pm(base).snr_approx_linear


def test_continuum_even_and_grouped_sum(link):
    link = link.with_modulation_frequency(link.passband_center())
    f = np.array([3e9, 10e9, 17e9])
    plus = pm_continuum(link, f)
    minus = pm_continuum(link, -f)
    np.testing.assert_allclose(plus, minus, rtol=1e-9)
    groups = pm_continuum_grouped(link, 10e9)
    assert sum(groups.values()) == pytest.approx(float(pm_continuum(link, 10e9)), rel=1e-12)


def test_decomposition_lines(link):
    link = link.with_modulation_frequency(link.passband_center())
    f_m = link.scheme.f_m
    decomp = pm_decomposition(link, np.linspace(-30e9, 30e9, 31))
    assert decomp.line_power_at(0.0) > 0
    assert decomp.line_power_at(f_m) > 0
    assert decomp.line_power_at(2 * f_m) >= 0
    assert np.all(decomp.line_powers >= 0)


def test_pm_passband_peaks_flat():
    # printed-form peaks are set by |R0(0)|^2 alone, hence equal; exact
    # peaks ripple at the interferometric-cross-term level
    printed, exact = [], []
    for f_c in (4e9, 7e9, 10e9, 13e9, 16e9):
        link = reference_link(scheme_kind="pm", gamma=GAMMA).with_delay_for_center(f_c)
        exact.append(signal_power_pm(link, f_c))
        printed.append(_printed_signal(link, f_c))
    printed_db = 10 * np.log10(np.asarray(printed))
    exact_db = 10 * np.log10(np.asarray(exact))
    assert printed_db.max() - printed_db.min() < 0.01
    assert exact_db.max() - exact_db.min() < 0.4


def test_pm_forms_reject_other_schemes():
    with pytest.raises(ConfigurationError):
        snr_pm(reference_link(scheme_kind="ssb"))


def test_line_weights_order_subset(link):
    grid = np.array([2e9, 7.5e9, link.passband_center(), 15e9])
    for f_m in (link.passband_center(), grid):
        full = pm_line_weights(link, f_m=f_m)
        pair = pm_line_weights(link, f_m=f_m, orders=(-1, 1))
        assert sorted(pair) == [-1, 1]
        for k in (-1, 1):
            np.testing.assert_array_equal(pair[k], full[k])
    scalar = [pm_line_weights(link, f_m=f)[1] for f in grid]
    np.testing.assert_allclose(pm_line_weights(link, f_m=grid)[1], scalar, rtol=1e-12, atol=0.0)


def _count_calls(monkeypatch, owner, names, calls):
    """Wrap each named attribute of ``owner`` so that its calls are counted."""
    for name in names:

        def counted(*args, _original=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


def test_snr_pm_evaluates_each_source_value_once(monkeypatch, link):
    from collections import Counter

    from ibosmpf import RectangularSpectrum, pm

    calls = Counter()
    _count_calls(monkeypatch, pm, ("pm_line_weights", "pm_continuum_grouped"), calls)
    _count_calls(monkeypatch, RectangularSpectrum, ("autocorrelation", "cross_spectrum"), calls)
    pm.snr_pm(link)
    # frozen: 17 distinct (order k, shift ua - ub) cross spectra over the 36
    # (term, k) pairs of the continuum, in one call per shift (0, +-d,
    # +-2d); 6 lag arrays (orders +-1, shifts -1, 0, +1) for the +-f_m line
    # weights, each its own mirror's mirror
    assert calls == {
        "pm_line_weights": 1,
        "pm_continuum_grouped": 1,
        "cross_spectrum": 5,
        "autocorrelation": 6,
    }


@pytest.mark.parametrize(
    "orders,expected",
    [
        ((-2, -1, 0, 1, 2), 11),  # orders +-2 use shift 0 only
        ((-1, 1), 6),
        ((1,), 6),  # 3 lag arrays plus their 3 order -1 mirrors for the check
        ((2,), 2),
    ],
)
def test_line_weights_evaluate_each_lag_once(monkeypatch, link, orders, expected):
    from collections import Counter

    from ibosmpf import RectangularSpectrum

    calls = Counter()
    _count_calls(monkeypatch, RectangularSpectrum, ("autocorrelation",), calls)
    pm_line_weights(link, orders=orders)
    assert calls["autocorrelation"] == expected
