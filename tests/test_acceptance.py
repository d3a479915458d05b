"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  The Monte-Carlo criteria share session-scoped ensembles; the whole
module completes in a few minutes on a desktop CPU.
"""

import math

import numpy as np
import pytest

from ibosmpf import (
    RectangularSpectrum,
    WelchConfig,
    estimate_snr,
    noise_figure,
    oeo_phase_noise,
    optical_fsr,
    reference_link,
    snr_ssb,
)
from ibosmpf.closed_forms import (
    dsb_fading_null_frequency,
    noise_psd_shared,
    passband_shape,
    shared_modulator_decomposition,
    signal_power_dsb,
    signal_power_ssb,
)
from ibosmpf.engine import general_intensity_psd
from ibosmpf.freq_domain import freq_domain_noise_psd, freq_domain_signal_power
from ibosmpf.montecarlo import DEFAULT_GRID
from ibosmpf.pm import pm_decomposition, snr_pm
from ibosmpf.spectrum import TabulatedSpectrum
from ibosmpf.units import dbm_to_watts
from tests.test_freq_domain import random_ssb_link

WELCH = WelchConfig()
GRID = DEFAULT_GRID
N_REALIZATIONS = 64


def _report(criterion: str, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def _retuned(link):
    f_m = WELCH.snap_frequency(link.passband_center(), GRID.dt)
    return link.with_delay_for_center(f_m).with_modulation_frequency(f_m)


@pytest.fixture(scope="module")
def mc_runs():
    """Full-budget MC ensembles at the four bench operating points."""
    runs = {}
    for key, kind, gamma, nm in (
        ("ssb32", "ssb", 0.39, 3.2),
        ("ssb64", "ssb", 0.39, 6.4),
        ("pm32", "pm", 0.41, 3.2),
        ("pm64", "pm", 0.41, 6.4),
    ):
        link = _retuned(reference_link(scheme_kind=kind, gamma=gamma, bandwidth_nm=nm))
        est = estimate_snr(link, GRID, n_realizations=N_REALIZATIONS, seed=1234, welch=WELCH)
        report = snr_ssb(link) if kind == "ssb" else snr_pm(link)
        runs[key] = (link, est, report)
    return runs


def test_c01_ssb_absolute_snr():
    r32 = snr_ssb(reference_link(bandwidth_nm=3.2, gamma=0.39))
    r64 = snr_ssb(reference_link(bandwidth_nm=6.4, gamma=0.39))
    assert r32.snr_approx_db_hz == pytest.approx(94.9, abs=0.5)
    assert r64.snr_approx_db_hz == pytest.approx(97.9, abs=0.5)
    _report(
        "C1",
        f"compact-form SNR {r32.snr_approx_db_hz:.2f} / {r64.snr_approx_db_hz:.2f} dBHz "
        "vs 94.9 / 97.9 within 0.5 dB",
    )


@pytest.mark.slow
def test_c02_bandwidth_doubling_law(mc_runs):
    step = 10 * math.log10(2.0)
    for kind, gamma in (("ssb", 0.39), ("pm", 0.41)):
        snr_fn = snr_ssb if kind == "ssb" else snr_pm
        r1 = snr_fn(reference_link(scheme_kind=kind, gamma=gamma, bandwidth_nm=3.2))
        r2 = snr_fn(reference_link(scheme_kind=kind, gamma=gamma, bandwidth_nm=6.4))
        assert r2.snr_approx_db_hz - r1.snr_approx_db_hz == pytest.approx(step, abs=0.02)
    deltas = {}
    for a, b in (("ssb32", "ssb64"), ("pm32", "pm64")):
        d = mc_runs[b][1].snr_db - mc_runs[a][1].snr_db
        assert d == pytest.approx(3.0, abs=0.5)
        deltas[a[:-2]] = d
    _report(
        "C2",
        "analytic doubling +3.01 dB (0.02); MC doubling "
        f"ssb {deltas['ssb']:+.2f} dB, pm {deltas['pm']:+.2f} dB (0.5)",
    )


def test_c03_dsb_power_fading():
    link = reference_link(scheme_kind="dsb")
    null = dsb_fading_null_frequency(link.phi)
    assert abs(null - 7.95e9) <= 0.05e9
    p4 = signal_power_dsb(link.with_delay_for_center(4e9), 4e9)
    p8 = signal_power_dsb(link.with_delay_for_center(8e9), 8e9)
    atten = 10 * math.log10(p4 / p8)
    assert atten >= 20.0
    _report("C3", f"null at {null/1e9:.3f} GHz; 8 GHz passband {atten:.1f} dB below 4 GHz")


def test_c04_cross_path_equivalence():
    rng = np.random.default_rng(20240801)
    worst = 0.0
    for _ in range(50):
        link = random_ssb_link(rng)
        f_c = link.passband_center()
        sig_td = signal_power_ssb(link, f_c)
        sig_fd = freq_domain_signal_power(link)
        worst = max(worst, abs(sig_fd - sig_td) / sig_td)
        for f in (f_c, 0.4 * f_c):
            no_td = noise_psd_shared(link, f)
            no_fd = freq_domain_noise_psd(link, f)
            worst = max(worst, abs(no_fd - no_td) / no_td)
    assert worst <= 1e-9
    _report("C4", f"time vs frequency domain on 50 random configs, worst rel err {worst:.2e}")


def _engine_against_closed_forms(kinds, spectrum=None):
    """Worst relative miss of the engine against the closed forms on a
    1024-point grid: continuum over its peak, each line over itself."""
    grid = np.linspace(-440e9, 440e9, 1024)
    worst = 0.0
    for kind, gamma in kinds:
        link = reference_link(scheme_kind=kind, gamma=gamma)
        if spectrum is not None:
            link = link.with_spectrum(spectrum)
        engine = general_intensity_psd(link, grid)
        if kind == "pm":
            reference = pm_decomposition(link, grid)
        else:
            reference = shared_modulator_decomposition(link, grid)
        scale = np.max(np.abs(reference.continuum))
        worst = max(worst, float(np.max(np.abs(engine.continuum - reference.continuum)) / scale))
        peak_line = max(reference.line_powers)
        for f, w in zip(reference.line_frequencies, reference.line_powers):
            err = abs(engine.line_power_at(f) - w) / max(w, 1e-12 * peak_line)
            worst = max(worst, float(err))
    return worst


def test_c05_general_evaluator_oracle_equivalence():
    worst = _engine_against_closed_forms((("unmodulated", 0.0), ("ssb", 0.39), ("dsb", 0.39), ("pm", 0.41)))
    assert worst <= 1e-6
    _report("C5", f"engine vs closed forms, 4 schemes, 1024-point grids, worst {worst:.2e}")


def test_c05_on_a_smooth_tabulated_source():
    # the closed forms transform the hat expansion exactly and the engine
    # integrates its PSD by quadrature: two computations of one spectrum
    b = reference_link().spectrum.b
    grid = np.linspace(-b, b, 4096)
    gaussian = TabulatedSpectrum(grid=grid, values=np.exp(-0.5 * (grid / (0.2 * b)) ** 2))
    worst = _engine_against_closed_forms((("ssb", 0.39), ("dsb", 0.39), ("pm", 0.41)), gaussian)
    assert worst <= 1e-6
    _report("C5", f"engine vs closed forms, 4096-point tabulated Gaussian, 3 schemes, worst {worst:.2e}")


@pytest.mark.slow
def test_c06_monte_carlo_convergence(mc_runs):
    lines = []
    for key in ("ssb32", "pm32", "ssb64", "pm64"):
        link, est, report = mc_runs[key]
        tol = max(3.0 * est.snr_stderr_db, 1.0)
        diff = est.snr_db - report.snr_db_hz
        assert abs(diff) <= tol
        lines.append(f"{key} {diff:+.3f} dB (3SE={3*est.snr_stderr_db:.3f})")
    _report("C6", "MC vs exact SNR: " + "; ".join(lines))


@pytest.mark.slow
@pytest.mark.parametrize("bandwidth_nm", [3.2, 6.4])
def test_c07_passband_shape(bandwidth_nm):
    welch = WelchConfig(nperseg=2**18)
    link = reference_link(bandwidth_nm=bandwidth_nm)
    f_c = welch.snap_frequency(link.passband_center(), GRID.dt)
    link = link.with_delay_for_center(f_c)
    targets = (
        (0.0, 80e6, 140e6, 200e6) if bandwidth_nm == 3.2 else (0.0, 40e6, 70e6, 100e6)
    )
    detunings = sorted(
        {welch.snap_frequency(f_c + s * t, GRID.dt) - f_c for t in targets for s in (1, -1)}
    )
    powers = {}
    for det in detunings:
        est = estimate_snr(
            link.with_modulation_frequency(f_c + det), GRID, n_realizations=12, seed=777, welch=welch
        )
        powers[det] = est.mean("line_power")
    peak = powers[0.0]
    worst = 0.0
    for det, power in powers.items():
        shape_db = 10 * math.log10(passband_shape(link, det))
        assert shape_db >= -10.0  # criterion range
        measured_db = 10 * math.log10(power / peak)
        worst = max(worst, abs(measured_db - shape_db))
    assert worst <= 0.5
    fsr = optical_fsr(1550e-9, 79.4e-12)
    assert abs(fsr - 0.101e-9) <= 0.001e-9
    _report(
        "C7",
        f"B={bandwidth_nm} nm passband vs sinc^2 worst {worst:.2f} dB (<=0.5); "
        f"FSR {fsr*1e9:.4f} nm",
    )


@pytest.mark.slow
def test_c08_scale_invariance(mc_runs):
    reports = {
        alpha: snr_ssb(reference_link(n0=alpha)) for alpha in (1e-3, 1.0, 1e3)
    }
    assert (
        reports[1e-3].snr_linear == reports[1.0].snr_linear == reports[1e3].snr_linear
    )
    assert (
        reports[1e-3].snr_approx_linear
        == reports[1.0].snr_approx_linear
        == reports[1e3].snr_approx_linear
    )
    base_link, base_est, _ = mc_runs["ssb32"]
    diffs = []
    for alpha in (1e-3, 1e3):
        spectrum = base_link.spectrum
        scaled = base_link.with_spectrum(
            RectangularSpectrum(n0=alpha * spectrum.n0, b=spectrum.b, carrier_f0=spectrum.carrier_f0)
        )
        est = estimate_snr(scaled, GRID, n_realizations=16, seed=1234, welch=WELCH)
        tol = max(3.0 * math.hypot(est.snr_stderr_db, base_est.snr_stderr_db), 0.05)
        diff = est.snr_db - base_est.snr_db
        assert abs(diff) <= tol
        diffs.append(diff)
    _report(
        "C8",
        "analytic SNR bit-identical under G -> alpha G; MC shifts "
        + ", ".join(f"{d:+.4f} dB" for d in diffs),
    )


def test_c09_noise_figure_consistency():
    nf = noise_figure(dbm_to_watts(6.0), 94.9)
    assert nf == pytest.approx(85.0, abs=1.5)
    _report("C9", f"NF {nf:.2f} dB at 6 dBm / 94.9 dBHz vs about 85 dB (1.5)")


def test_c10_oeo_phase_noise():
    tau = 1e-6
    delta = 1e-12  # delta/tau = 1e-6
    half = float(oeo_phase_noise(delta, tau, np.array([0.5 / tau]))[0])
    assert half == pytest.approx(delta / 4.0, rel=1e-3)
    plateau = float(oeo_phase_noise(delta, tau, np.array([1e-9 / tau]))[0])
    assert plateau == pytest.approx(4.0 * tau**2 / delta, rel=5e-3)
    f = np.linspace(0.1 / tau, 3.2 / tau, 3101)
    modes = np.array([1.0, 2.0, 3.0]) / tau
    grid = np.unique(np.concatenate([f, modes]))
    s = oeo_phase_noise(delta, tau, grid)
    for mode in modes:
        idx = int(np.argmin(np.abs(grid - mode)))
        assert s[idx] == pytest.approx(s.max(), rel=1e-9)
    _report("C10", "maxima at k/tau; half-mode value delta/4 (0.1%); plateau 4 tau^2/delta")


def test_c11_pm_absolute_value_documented_mismatch():
    link = reference_link(scheme_kind="pm", gamma=0.41)
    report = snr_pm(link)
    # the compact closed form evaluates to ~98.1 dBHz at nominal parameters
    assert report.snr_approx_db_hz == pytest.approx(98.1, abs=0.3)
    # and does NOT reproduce the published 95.6 dB simulation figure
    assert abs(report.snr_approx_db_hz - 95.6) > 2.0
    # the exact ratio, however, lands on it
    assert report.snr_db_hz == pytest.approx(95.6, abs=0.5)
    r64 = snr_pm(reference_link(scheme_kind="pm", gamma=0.41, bandwidth_nm=6.4))
    assert r64.snr_approx_db_hz - report.snr_approx_db_hz == pytest.approx(
        10 * math.log10(2.0), abs=0.02
    )
    _report(
        "C11",
        f"compact form {report.snr_approx_db_hz:.2f} dBHz (documented mismatch vs 95.6); "
        f"exact ratio {report.snr_db_hz:.2f} dBHz; doubling spacing 3.01 dB",
    )
