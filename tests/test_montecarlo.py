import math
import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft
from scipy.signal import welch as scipy_welch
from scipy.stats import kurtosis, skew

from ibosmpf import (
    ConfigurationError,
    DomainError,
    McEstimate,
    RectangularSpectrum,
    SimulationGrid,
    WelchConfig,
    estimate_psd,
    estimate_snr,
    propagate,
    reference_link,
    synthesize_field,
)
from ibosmpf.closed_forms import noise_psd_shared, signal_power_dsb, signal_power_ssb, snr_ssb
from ibosmpf.engine import fundamental_line_power, general_intensity_psd
from ibosmpf import montecarlo
from ibosmpf.modulation import (
    MAX_HARMONIC_ORDER,
    HarmonicModulation,
    ModulationKind,
    SchemeConfig,
    _phasor,
    build_scheme,
    polarization_modulator_scheme,
)
from ibosmpf.montecarlo import _plan, extract_line, realization_rng
from ibosmpf.pm import snr_pm

SMALL_GRID = SimulationGrid(dt=0.25e-12, n_samples=2**16)
MID_GRID = SimulationGrid(dt=0.25e-12, n_samples=2**18)
SPEC = RectangularSpectrum(n0=1.0, b=400e9, carrier_f0=193.4e12)
BAND_WELCH = WelchConfig(nperseg=4096)


def _retuned(link, grid, welch):
    """``link`` with its passband centre snapped to a Welch bin, which is on the grid's lattice, and its tone there."""
    f_m = welch.snap_frequency(link.passband_center(), grid.dt)
    return link.with_delay_for_center(f_m).with_modulation_frequency(f_m), f_m


def _field(spectrum, grid, rng):
    """Time-domain field of one synthesized spectrum."""
    return scipy.fft.ifft(synthesize_field(spectrum, grid, rng), norm="forward")


def _ensemble(fn, n, seed=0):
    values = [fn(realization_rng(seed, r)) for r in range(n)]
    arr = np.asarray(values)
    return arr.mean(axis=0), arr.std(axis=0, ddof=1) / math.sqrt(n)


# --- synthesis statistics -----------------------------------------------------


@pytest.mark.slow
def test_autocorrelation_at_zero_converges():
    def one(rng):
        field = _field(SPEC, SMALL_GRID, rng)
        return np.mean(np.abs(field) ** 2)

    mean, se = _ensemble(one, 64)
    assert abs(mean - SPEC.total_power()) <= 3 * se


@pytest.mark.slow
def test_autocorrelation_first_null_converges():
    lag_samples = int(round(1.0 / SPEC.b / SMALL_GRID.dt))
    assert lag_samples * SMALL_GRID.dt == pytest.approx(1.0 / SPEC.b)

    def one(rng):
        field = _field(SPEC, SMALL_GRID, rng)
        return np.mean(field[lag_samples:] * np.conj(field[:-lag_samples])).real

    mean, se = _ensemble(one, 64)
    assert abs(mean) <= 3 * se


@pytest.mark.slow
def test_fourth_moment_gaussianity():
    def one(rng):
        field = _field(SPEC, SMALL_GRID, rng)
        return np.mean(np.abs(field) ** 4)

    mean, se = _ensemble(one, 64)
    want = 2.0 * SPEC.total_power() ** 2
    assert abs(mean - want) <= 3 * se


def test_field_moments_near_gaussian():
    rng = realization_rng(123, 0)
    field = _field(SPEC, MID_GRID, rng)
    for part in (field.real, field.imag):
        assert abs(skew(part)) <= 0.1
        assert abs(kurtosis(part)) <= 0.2


# --- propagation ---------------------------------------------------------------


def test_propagate_coherent_sum_without_delay_or_dispersion():
    link = reference_link(scheme_kind="unmodulated", delay_s=0.0, f_m=0.0)
    link = link.__class__(
        spectrum=link.spectrum,
        interferometer=link.interferometer,
        dispersion=link.dispersion.__class__(phi=0.0),
        scheme=link.scheme,
    )
    spectrum = synthesize_field(link.spectrum, SMALL_GRID, realization_rng(5, 0))
    field = scipy.fft.ifft(spectrum, norm="forward")
    intensity = propagate(spectrum, link, SMALL_GRID)
    np.testing.assert_allclose(intensity, np.abs(2.0 * field) ** 2, rtol=1e-9)


@pytest.mark.slow
def test_propagate_mean_intensity_with_delay():
    link = reference_link(scheme_kind="unmodulated", f_m=0.0)

    def one(rng):
        spectrum = synthesize_field(link.spectrum, SMALL_GRID, rng)
        return propagate(spectrum, link, SMALL_GRID).mean()

    mean, se = _ensemble(one, 64)
    r0 = link.spectrum.autocorrelation
    want = 2.0 * r0(0.0).real + 2.0 * np.real(
        r0(link.delay) * np.exp(-1j * link.carrier_phase)
    )
    assert abs(mean - want) <= 3 * se


def _estimate_plan(link, grid):
    """The plan of ``estimate_snr``'s realizations, less the synthesis amplitude: detection at the M band samples."""
    plan = _plan(link, grid)
    return plan._replace(detect=plan.band)


def _scattered(band, n):
    """The N-bin spectrum of a band draw: its first and last M/2 bins in place, zeros between."""
    spectrum, half = np.zeros(n, complex), band.size // 2
    spectrum[:half], spectrum[n - half :] = band[:half], band[half:]
    return spectrum


def _reference_chain(link, grid, spectrum):
    """Intensity of an N-bin field spectrum computed factor by factor, without a plan (five FFTs)."""
    freqs = grid.frequencies()
    field = np.fft.ifft(spectrum, norm="forward")
    delayed = np.fft.ifft(np.fft.fft(field) * np.exp(-2j * np.pi * freqs * link.delay))
    m1, m2 = build_scheme(link.scheme)
    k = complex(link.interferometer.arm_ratio_k)
    t = grid.times()

    def evaluate(m):
        return sum(c * np.exp(2j * np.pi * n * m.f_m * t) for n, c in m.coeffs.items())

    combined = field * evaluate(m1) + delayed * evaluate(m2) * (
        k * np.exp(-1j * link.carrier_phase)
    )
    dispersion = np.exp(-1j * link.phi * 0.5 * (2.0 * np.pi * freqs) ** 2)
    return np.abs(np.fft.ifft(np.fft.fft(combined) * dispersion)) ** 2


def _polarization_link():
    base = reference_link()
    link = replace(base, scheme=polarization_modulator_scheme(0.6, base.scheme.f_m))
    return replace(link, interferometer=replace(link.interferometer, arm_ratio_k=0.6))


def _two_modulated_arms_link():
    """Custom scheme whose arms carry different, non-constant modulations."""
    base = reference_link()
    scheme = SchemeConfig(
        kind=ModulationKind.CUSTOM,
        f_m=base.scheme.f_m,
        gamma=0.3,
        m1_coeffs={-1: 0.1j, 0: 0.9, 1: 0.2},
        m2_coeffs={0: 0.7, 1: 0.7 * 0.15},
    )
    return replace(base, scheme=scheme)


def _all_orders_link():
    """Custom scheme with every harmonic order up to the supported one on both arms, unbalanced splitter."""
    base = reference_link()
    orders = range(-MAX_HARMONIC_ORDER, MAX_HARMONIC_ORDER + 1)
    scheme = SchemeConfig(
        kind=ModulationKind.CUSTOM,
        f_m=base.scheme.f_m,
        m1_coeffs={n: (0.6 - 0.2j * n) / (1 + n * n) for n in orders},
        m2_coeffs={n: 0.5 * (0.6j) ** abs(n) * (1 if n >= 0 else -1) for n in orders},
    )
    return replace(base, scheme=scheme, interferometer=replace(base.interferometer, arm_ratio_k=0.8))


# on SMALL_GRID's lattice: the passband centre and the tone at a BAND_WELCH bin
LINKS = {
    name: _retuned(link, SMALL_GRID, BAND_WELCH)[0]
    for name, link in {
        "ssb": reference_link(scheme_kind="ssb"),
        "dsb": reference_link(scheme_kind="dsb"),
        "pm": reference_link(scheme_kind="pm", gamma=0.41),
        "polarization": _polarization_link(),
        "two_modulated_arms": _two_modulated_arms_link(),
        "all_orders": _all_orders_link(),
    }.items()
}


@pytest.mark.parametrize("link", LINKS.values(), ids=LINKS.keys())
def test_plan_matches_reference_chain(link):
    # a carrier phase away from 0 and pi checks the arm_ratio_k exp(-j theta) folding
    assert abs(math.sin(link.carrier_phase)) > 0.1
    n, freqs = SMALL_GRID.n_samples, SMALL_GRID.frequencies()
    amplitude = np.sqrt(np.asarray(link.spectrum.psd(freqs), dtype=float) * SMALL_GRID.df)
    noise = realization_rng(3, 1).standard_normal(2 * n).view(np.complex128)
    plan = _plan(link, SMALL_GRID)
    assert plan.band < n
    for kwargs in ({}, {"plan": plan}):
        spectrum = synthesize_field(link.spectrum, SMALL_GRID, realization_rng(3, 1), **kwargs)
        if not kwargs:
            np.testing.assert_allclose(spectrum, amplitude * noise * math.sqrt(0.5), rtol=1e-12, atol=0)
        # the same field on all N bins; the bin shifts use exact roots of unity
        # where the reference chain rounds 2 pi n f_m t
        intensity_want = _reference_chain(link, SMALL_GRID, _scattered(spectrum, n))
        intensity = propagate(spectrum, link, SMALL_GRID, **kwargs)
        assert np.max(np.abs(intensity - intensity_want)) <= 1e-12 * intensity_want.max()


def test_dispersion_step_conserves_energy():
    rng = realization_rng(9, 0)
    field = _field(SPEC, SMALL_GRID, rng)
    freqs = SMALL_GRID.frequencies()
    phase = np.exp(-1j * 1.26e-21 * 0.5 * (2 * np.pi * freqs) ** 2)
    out = np.fft.ifft(np.fft.fft(field) * phase)
    before = np.mean(np.abs(field) ** 2)
    after = np.mean(np.abs(out) ** 2)
    assert after == pytest.approx(before, rel=1e-12)


# --- Welch calibration ------------------------------------------------------------


def test_sinusoid_line_power_calibration():
    grid = MID_GRID
    welch = WelchConfig(nperseg=4096)
    f0 = welch.snap_frequency(9.8e9, grid.dt)
    t = grid.times()
    rng = realization_rng(77, 0)
    amplitude = 3.0
    x = amplitude * np.cos(2 * np.pi * f0 * t) + 0.05 * rng.standard_normal(grid.n_samples)
    decomp = estimate_psd(x, grid, welch)
    power, _ = extract_line(decomp.frequencies, decomp.continuum, f0, welch.bin_width(grid.dt))
    # two-sided: the +f0 line carries a quarter of the amplitude squared
    assert power == pytest.approx(amplitude**2 / 4.0, rel=0.01)


def test_white_noise_density_calibration():
    grid = MID_GRID
    welch = WelchConfig(nperseg=4096)
    sigma = 0.7
    rng = realization_rng(78, 0)
    x = sigma * rng.standard_normal(grid.n_samples)
    decomp = estimate_psd(x, grid, welch)
    want = sigma**2 / grid.sample_rate  # two-sided density
    sel = np.abs(decomp.frequencies) > 0.05 * grid.sample_rate
    assert decomp.continuum[sel].mean() == pytest.approx(want, rel=0.02)


def test_density_symmetric_for_real_input():
    grid = SMALL_GRID
    rng = realization_rng(79, 0)
    x = rng.standard_normal(grid.n_samples)
    decomp = estimate_psd(x, grid, WelchConfig(nperseg=2048))
    freqs = decomp.frequencies
    for f in (1e9, 10e9, 100e9):
        plus = decomp.continuum[np.argmin(np.abs(freqs - f))]
        minus = decomp.continuum[np.argmin(np.abs(freqs + f))]
        assert plus == pytest.approx(minus, rel=1e-9)


@pytest.mark.parametrize("nperseg", [2048, 2047])
def test_estimate_psd_matches_two_sided_welch(nperseg):
    grid = SMALL_GRID
    x = 1.0 + realization_rng(80, 0).standard_normal(grid.n_samples) ** 2
    freqs, density = scipy_welch(
        x,
        fs=grid.sample_rate,
        window="hann",
        nperseg=nperseg,
        noverlap=nperseg // 2,
        detrend="constant",
        return_onesided=False,
        scaling="density",
    )
    decomp = estimate_psd(x, grid, WelchConfig(nperseg=nperseg))
    np.testing.assert_array_equal(decomp.frequencies, np.fft.fftshift(freqs))
    np.testing.assert_allclose(decomp.continuum, np.fft.fftshift(density), rtol=1e-12, atol=0)


def test_estimate_psd_matches_welch_across_transform_blocks():
    # several batched-transform groups, the last one partial, and a segment
    # length that does not divide the record
    nperseg = 3000
    x = 1.0 + realization_rng(81, 0).standard_normal(2**20 + 777) ** 2
    n_segments = (x.size - nperseg) // (nperseg - nperseg // 2) + 1
    assert n_segments > 2 * montecarlo._WELCH_ROWS and n_segments % montecarlo._WELCH_ROWS
    grid = MID_GRID
    freqs, density = scipy_welch(
        x,
        fs=grid.sample_rate,
        window="hann",
        nperseg=nperseg,
        noverlap=nperseg // 2,
        detrend="constant",
        return_onesided=False,
        scaling="density",
    )
    decomp = estimate_psd(x, grid, WelchConfig(nperseg=nperseg))
    np.testing.assert_array_equal(decomp.frequencies, np.fft.fftshift(freqs))
    np.testing.assert_allclose(decomp.continuum, np.fft.fftshift(density), rtol=1e-12, atol=0)


def test_estimate_psd_rejects_long_segment():
    with pytest.raises(ConfigurationError):
        estimate_psd(np.zeros(1024), SimulationGrid(dt=1e-12, n_samples=1024), WelchConfig(nperseg=4096))


# --- SNR estimation ---------------------------------------------------------------


def _floor_offsets(grid):
    """Record-bin offsets of the estimator's floor: those nearest 0.5 and 1.5 GHz, all between, on both sides."""
    near = np.arange(round(0.5e9 / grid.df), round(1.5e9 / grid.df) + 1)
    return np.concatenate((-near[::-1], near))


def _windowed_analytic_floor(noise_fn, f, grid):
    return float(np.mean([noise_fn(f + k * grid.df) for k in _floor_offsets(grid)]))


def test_mc_snr_matches_analytic_reduced_budget():
    # line extraction needs bins fine against the 1/d continuum structure
    grid = MID_GRID
    welch = WelchConfig(nperseg=32768)
    link, f_m = _retuned(reference_link(), grid, welch)
    est = estimate_snr(link, grid, n_realizations=12, seed=11, welch=welch)
    line_an = signal_power_ssb(link, f_m) / 2.0
    floor_an = _windowed_analytic_floor(lambda f: noise_psd_shared(link, f), f_m, grid)
    assert est.mean("line_power") == pytest.approx(
        line_an, abs=max(3 * est.stderr("line_power"), 0.02 * line_an)
    )
    assert est.mean("noise_psd") == pytest.approx(
        floor_an, abs=max(3 * est.stderr("noise_psd"), 0.02 * floor_an)
    )
    snr_an = 10 * math.log10(line_an / noise_psd_shared(link, f_m))
    assert est.snr_db == pytest.approx(snr_an, abs=max(3 * est.snr_stderr_db, 0.5))


# the named links, and all_orders at a 1 ps delay, where the arms' fields correlate,
# R0(d) = 0.76 R0(0), so that the carrier phase weighs fully
ORACLE_LINKS = {kind: LINKS[kind] for kind in ("ssb", "dsb", "pm", "polarization", "all_orders")}
ORACLE_LINKS["all_orders_1ps"] = replace(
    LINKS["all_orders"], interferometer=replace(LINKS["all_orders"].interferometer, delay_d=1e-12)
)
# Each z below is a Student t with 31 degrees of freedom.  Over root seeds 100-123
# the 3,600 continuum z's of the five links other than DSB spread by 1.04 (t_31:
# 1.03), the heaviest |z| 5.18, and the 240 line z's by 1.03, the heaviest 3.20.
# The bound is Bonferroni at P(|t_31| > 5.43) = 0.001 / 160 per comparison; one
# run makes 192 (six links, 30 bands and 2 lines each), a 0.12 % family-wise
# false-alarm rate.  DSB at seed 0 reaches |z| 2.56 and adds 0.24 s (2-core Xeon)
_ORACLE_Z = 5.43


def _oracle_z(link, seed, n=32):
    """z of the ensemble periodogram against ``general_intensity_psd``: 30 continuum bands, then the DC and f_m lines.

    The public full-grid chain's realizations at 2^16 samples; a_k =
    rfft(I, norm="forward") of each whole record, so E |a_k|^2 T is the
    two-sided continuum at k df off the lines.  A band is 32 bins up to
    58.6 GHz less the line bins k c; a line is its bin's |a|^2 less the noise
    there, the mean of the 16 bins on each side (at DC, above it).
    """
    grid = SMALL_GRID
    c, top = round(link.scheme.f_m / grid.df), round(60e9 / grid.df)
    power = np.array([
        abs(np.fft.rfft(propagate(synthesize_field(link.spectrum, grid, realization_rng(seed, r)), link, grid),
                        norm="forward")[: top + 1]) ** 2
        for r in range(n)
    ])
    bands = np.arange(1, 1 + top // 32 * 32).reshape(-1, 32)
    decomp = general_intensity_psd(link, bands.ravel() * grid.df)

    def z(values, want):
        return (values.mean() - want) / (values.std(ddof=1) / math.sqrt(n))

    off_lines = (band[band % c != 0] for band in bands)
    zs = [z(power[:, b].mean(axis=1) * grid.duration, decomp.continuum[b - 1].mean()) for b in off_lines]
    lines = dict(zip(np.round(decomp.line_frequencies / grid.df), decomp.line_powers))
    for k in (0, c):
        zs.append(z(power[:, k] - power[:, np.r_[max(k - 16, 1) : k, k + 1 : k + 17]].mean(axis=1), lines[k]))
    return np.array(zs)


@pytest.mark.parametrize("kind", ORACLE_LINKS)
def test_ensemble_periodogram_matches_the_engine_continuum_and_lines(kind):
    # the engine's one oracle on custom pairs and unbalanced splitters; the
    # harmonics at 2 f_m and above carry at most 0.8 % of their bin's noise
    # here, beyond what 32 realizations resolve, and are left out
    zs = _oracle_z(ORACLE_LINKS[kind], seed=0)
    assert zs.size == 32 and np.max(np.abs(zs)) <= _ORACLE_Z


def test_mc_dsb_line_powers_and_fading_null():
    grid = MID_GRID
    welch = WelchConfig(nperseg=32768)
    base = reference_link(scheme_kind="dsb")
    # 4 GHz passband: line converges to the exact fading formula
    f4 = welch.snap_frequency(4e9, grid.dt)
    link4 = base.with_delay_for_center(f4).with_modulation_frequency(f4)
    est4 = estimate_snr(link4, grid, n_realizations=12, seed=19, welch=welch)
    line4_an = signal_power_dsb(link4, f4) / 2.0
    assert est4.mean("line_power") == pytest.approx(
        line4_an, abs=max(3 * est4.stderr("line_power"), 0.02 * line4_an)
    )
    # passband tuned onto the dispersion-fading null: the tone disappears
    from ibosmpf.closed_forms import dsb_fading_null_frequency

    f_null = welch.snap_frequency(dsb_fading_null_frequency(base.phi), grid.dt)
    link_null = base.with_delay_for_center(f_null).with_modulation_frequency(f_null)
    est_null = estimate_snr(link_null, grid, n_realizations=12, seed=19, welch=welch)
    assert est_null.mean("line_power") <= 0.01 * est4.mean("line_power")


def test_mc_unmodulated_has_no_line():
    grid = MID_GRID
    welch = WelchConfig(nperseg=8192)
    link, f_m = _retuned(reference_link(scheme_kind="unmodulated"), grid, welch)
    df = welch.bin_width(grid.dt)
    spectrum = synthesize_field(link.spectrum, grid, realization_rng(21, 0))
    intensity = propagate(spectrum, link, grid)
    decomp = estimate_psd(intensity, grid, welch)
    line, floor = extract_line(decomp.frequencies, decomp.continuum, f_m, df)
    assert abs(line) < 5.0 * floor * df


def test_mc_custom_scheme_matches_engine_lines():
    # polarization-modulator equivalent: engine line power is the oracle
    grid = MID_GRID
    welch = WelchConfig(nperseg=32768)
    base = reference_link()
    f_m = welch.snap_frequency(base.passband_center(), grid.dt)
    base = base.with_delay_for_center(f_m)
    link = base.__class__(
        spectrum=base.spectrum,
        interferometer=base.interferometer,
        dispersion=base.dispersion,
        scheme=polarization_modulator_scheme(0.6, f_m),
    )
    est = estimate_snr(link, grid, n_realizations=12, seed=33, welch=welch)
    line_an = fundamental_line_power(link, f_m) / 2.0
    assert est.mean("line_power") == pytest.approx(
        line_an, abs=max(3 * est.stderr("line_power"), 0.03 * line_an)
    )


def test_estimate_snr_measures_the_links_own_tone():
    # the SSB link's passband is centred on 9.77 GHz, 10 bins of 0.98 GHz; its
    # tone, 8.8 GHz, snaps to 9 bins, and the estimate is the serial stages' there
    link = LINKS["ssb"].with_modulation_frequency(8.8e9)
    tone = BAND_WELCH.snap_frequency(8.8e9, SMALL_GRID.dt)
    est = estimate_snr(link, SMALL_GRID, n_realizations=8, seed=2, welch=BAND_WELCH)
    assert est.metadata["f_m"] == tone == 9 * BAND_WELCH.bin_width(SMALL_GRID.dt) != link.passband_center()
    at_tone = link.with_modulation_frequency(tone)
    assert est.quantities == _serial_quantities(at_tone, SMALL_GRID, 8, 2, _estimate_plan(at_tone, SMALL_GRID))


def test_estimate_snr_deterministic():
    grid = SimulationGrid(dt=0.25e-12, n_samples=2**17)
    welch = WelchConfig(nperseg=4096)
    link, _ = _retuned(reference_link(), grid, welch)
    a = estimate_snr(link, grid, n_realizations=8, seed=5, welch=welch)
    b = estimate_snr(link, grid, n_realizations=8, seed=5, welch=welch)
    assert a.quantities == b.quantities
    assert a.metadata["band_bins"] == grid.n_samples // 8
    # the tone makes a whole number of cycles in the record: its harmonics shift bins
    assert a.metadata["lattice_bins"] == round(a.metadata["f_m"] * grid.duration) > 0
    c = estimate_snr(link, grid, n_realizations=8, seed=6, welch=welch)
    assert a.quantities != c.quantities


# --- stage structure ----------------------------------------------------------------


def _count_calls(monkeypatch) -> Counter:
    """Count the stage calls ``estimate_snr`` makes through the module namespace, and its real transforms."""
    counts = Counter()
    lock = threading.Lock()  # the stages run on worker threads

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            with lock:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("synthesize_field", "propagate", "estimate_psd", "extract_line", "floor_density"):
        monkeypatch.setattr(montecarlo, name, counting(name, getattr(montecarlo, name)))
    monkeypatch.setattr(np.fft, "rfft", counting("rfft", np.fft.rfft))
    monkeypatch.setattr(HarmonicModulation, "evaluate", counting("evaluate", HarmonicModulation.evaluate))
    monkeypatch.setattr(RectangularSpectrum, "psd", counting("psd", RectangularSpectrum.psd))
    return counts


@pytest.mark.parametrize("kind", ["ssb", "pm"])
def test_estimate_snr_runs_each_stage_once_per_realization(monkeypatch, kind):
    welch = WelchConfig(nperseg=4096)
    link, _ = _retuned(reference_link(scheme_kind=kind, gamma=0.41), SMALL_GRID, welch)
    counts = _count_calls(monkeypatch)
    estimate_snr(link, SMALL_GRID, n_realizations=8, seed=2, welch=welch)
    # each realization ends with one periodogram of its whole record: no Welch, no line or floor helper
    stages = ("synthesize_field", "propagate", "rfft", "estimate_psd", "extract_line", "floor_density")
    assert {name: counts[name] for name in stages} == {
        "synthesize_field": 8, "propagate": 8, "rfft": 8, "estimate_psd": 0, "extract_line": 0, "floor_density": 0,
    }
    # the tone is on the lattice, so the arms shift bins and evaluate no
    # waveform; one psd call is the plan's amplitude, built once per call
    assert counts["evaluate"] == 0
    assert counts["psd"] == 1


def _tone_bin_line_and_floor(intensity, grid, f_m):
    """Line power and floor density of one record's periodogram, from its DFT a_k at the tone's bin.

    The floor density is the mean |a_k|^2 over the floor bins that hold no
    line (a multiple of c) times the record's duration T, the line |a_c|^2
    less the floor's share of bin c, floor / T.
    """
    coefficients = np.fft.rfft(intensity, norm="forward")
    c = round(f_m / grid.df)
    bins = np.abs(c + _floor_offsets(grid))
    bins = bins[bins % c != 0]
    floor = np.mean(abs(coefficients[bins]) ** 2) * grid.duration
    return abs(coefficients[c]) ** 2 - floor / grid.duration, floor


def _serial_quantities(link, grid, n, seed, plan, *, grid_length=False):
    """``estimate_snr``'s quantities from a serial loop over the public stages and one periodogram each.

    With ``grid_length`` each drawn field is scattered onto all N bins and detected on all N grid times.
    """
    lines, floors = np.empty(n), np.empty(n)
    for r in range(n):
        spectrum = synthesize_field(link.spectrum, grid, realization_rng(seed, r), plan=plan)
        if grid_length:
            intensity = propagate(_scattered(spectrum, grid.n_samples), link, grid)
        else:
            intensity = propagate(spectrum, link, grid, plan=plan)
        lines[r], floors[r] = _tone_bin_line_and_floor(intensity, grid, link.scheme.f_m)

    def stats(values):
        return float(values.mean()), float(values.std(ddof=1) / math.sqrt(n))

    return {"line_power": stats(lines), "noise_psd": stats(floors), "snr_linear": stats(lines / floors)}


@pytest.mark.parametrize("kind", ["ssb", "polarization"])
def test_pooled_estimate_snr_equals_serial_stage_loop(monkeypatch, kind):
    welch, link = BAND_WELCH, LINKS[kind]
    n, seed = 8, 4
    plan = _estimate_plan(link, SMALL_GRID)
    assert plan.detect == SMALL_GRID.n_samples // 8
    want = _serial_quantities(link, SMALL_GRID, n, seed, plan)

    # more workers than this machine may have CPUs and frequent thread
    # switches, so that realizations interleave
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        est = estimate_snr(link, SMALL_GRID, n_realizations=n, seed=seed, welch=welch)
    finally:
        sys.setswitchinterval(interval)
    assert est.quantities == want


_UNMODULATED = _retuned(reference_link(scheme_kind="unmodulated"), SMALL_GRID, BAND_WELCH)[0]
WORKSPACE_LAYOUTS = {
    # d = M < N: the sum in the second workspace buffer, |E|^2 in the first, the periodogram in the second
    "band-rate": LINKS["pm"],
    # one constant arm: its one shift {0: 1} sums into the second buffer as any arm's harmonics do
    "constant-arm": _UNMODULATED,
}


@pytest.mark.parametrize("width", [1, 4])
@pytest.mark.parametrize("link", WORKSPACE_LAYOUTS.values(), ids=WORKSPACE_LAYOUTS.keys())
def test_pooled_workspaces_equal_serial_stage_loop(monkeypatch, link, width):
    plan = _estimate_plan(link, SMALL_GRID)
    assert plan.detect == plan.band == SMALL_GRID.n_samples // 8
    if link.scheme.kind == ModulationKind.UNMODULATED:
        assert plan.arms[0][1] == {0: 1}
    want = _serial_quantities(link, SMALL_GRID, 8, 9, plan)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: width)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        est = estimate_snr(link, SMALL_GRID, n_realizations=8, seed=9, welch=BAND_WELCH)
    finally:
        sys.setswitchinterval(interval)
    assert est.metadata["workers"] == width
    assert est.quantities == want


def test_detection_stride(monkeypatch):
    # N/M = 8 at 3.2 nm: estimate_snr detects the band's M samples, every 8th
    # grid time, whatever the segment, which only snaps the tone; public
    # propagate detects all N
    link = LINKS["ssb"]
    n = SMALL_GRID.n_samples
    assert _plan(link, SMALL_GRID).detect == n
    detected = []

    def recording(spectrum, link, grid, *, plan):
        detected.append((plan.detect, plan.band))
        return propagate(spectrum, link, grid, plan=plan)

    monkeypatch.setattr(montecarlo, "propagate", recording)
    f_m = link.scheme.f_m  # on the bins of every segment below
    a, b = (estimate_snr(link, SMALL_GRID, n_realizations=8, seed=3, welch=WelchConfig(s)) for s in (4096, n))
    assert a.metadata["f_m"] == b.metadata["f_m"] == f_m
    assert detected == [(n // 8, n // 8)] * 16
    assert a.quantities == b.quantities


@pytest.mark.parametrize("kind", ["ssb", "pm"])
def test_band_rate_tone_bin_matches_full_grid_chain_at_full_scale(kind):
    # the benchmark links: one realization detected at the M band samples
    # against the public full-grid chain's N; M samples fold bin k + jM onto
    # k, past 2 F for every bin the estimate reads, so both records hold the
    # same tone and floor bins up to rounding
    grid, welch = montecarlo.DEFAULT_GRID, WelchConfig()
    link, f_m = _retuned(reference_link(scheme_kind=kind, gamma=0.39 if kind == "ssb" else 0.41), grid, welch)
    plan = _estimate_plan(link, grid)
    assert plan.detect == grid.n_samples // 8

    def line_and_floor(detect_plan):
        spectrum = synthesize_field(link.spectrum, grid, realization_rng(1234, 0))
        return _tone_bin_line_and_floor(propagate(spectrum, link, grid, plan=detect_plan), grid, f_m)

    np.testing.assert_allclose(line_and_floor(plan), line_and_floor(None), rtol=1e-12, atol=0)


# DSB on a 474 GHz source: its sidebands reach F = 246.8 GHz on both sides, so its
# intensity reaches 2 F = 493.5 GHz, 8086 bins, 106 bins below N/8 at 2^16 samples,
# less than the c + outer = 185 bins the estimate reads: its band is N/4
ALIAS_EDGE = replace(LINKS["dsb"], spectrum=RectangularSpectrum(n0=1.0, b=474e9, carrier_f0=SPEC.carrier_f0))


@pytest.mark.parametrize("link", [*LINKS.values(), ALIAS_EDGE], ids=[*LINKS.keys(), "alias_edge"])
def test_estimate_snr_equals_the_full_grid_chain_to_rounding(link):
    # estimate_snr detects the M band samples, which fold intensity bin k + jM
    # onto k; M df > 2 F + (c + outer) df puts every fold of a tone or floor
    # bin past the intensity's band |f| <= 2 F, where a band sized for the
    # field alone (M df > 2 F) folds the edge of the intensity into them
    if link is ALIAS_EDGE:
        assert _plan(link, SMALL_GRID).band == SMALL_GRID.n_samples // 4
    est = estimate_snr(link, SMALL_GRID, n_realizations=8, seed=6, welch=BAND_WELCH)
    # the same fields, each detected on all N grid times
    want = _serial_quantities(link, SMALL_GRID, 8, 6, _estimate_plan(link, SMALL_GRID), grid_length=True)
    for name in ("line_power", "noise_psd"):
        assert est.mean(name) == pytest.approx(want[name][0], rel=1e-12, abs=0)


# --- the tone-bin estimator ---------------------------------------------------------


def _estimate_of(monkeypatch, intensity_of, n=8, grid=SMALL_GRID, f_m=None):
    """``estimate_snr`` of the SSB test link on ``grid``, each realization's detected intensity replaced.

    ``intensity_of(r, k)`` gives realization r at the M detection samples k; one worker
    runs the realizations in order.  ``f_m``, if given, is its tone.
    """
    link = LINKS["ssb"] if f_m is None else LINKS["ssb"].with_modulation_frequency(f_m)
    count = []
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)

    def replaced(spectrum, link, grid, *, plan):
        count.append(None)
        return intensity_of(len(count) - 1, np.arange(plan.detect))

    monkeypatch.setattr(montecarlo, "propagate", replaced)
    est = estimate_snr(link, grid, n_realizations=n, seed=0, welch=BAND_WELCH)
    assert len(count) == n
    return est


@pytest.mark.parametrize(
    "grid, c",
    [
        (SMALL_GRID, 160),  # the test link's 9.8 GHz tone: no line within 1.5 GHz of its floor
        (MID_GRID, 64),  # a 0.98 GHz tone: its floor bins 0 .. 34 and 97 .. 162 take in DC and 2 f_m
    ],
    ids=["passband", "1GHz"],
)
def test_lattice_tone_gives_its_line_power_and_no_floor(monkeypatch, grid, c):
    # a tone on bin c, its harmonic and a DC offset: the exactly periodic
    # record puts each in its own bin, DC and 2c lines the floor leaves out
    amplitude, harmonic, offset, m = 3.0, 2.0, 5.0, grid.n_samples // 8

    def intensity(r, k):
        return offset + amplitude * np.cos(2 * np.pi * c * k / m) + harmonic * np.cos(4 * np.pi * c * k / m)

    est = _estimate_of(monkeypatch, intensity, grid=grid, f_m=c * grid.df)
    assert est.metadata["lattice_bins"] == c
    # two-sided: the +f_m line carries a quarter of the amplitude squared
    assert est.mean("line_power") == pytest.approx(amplitude**2 / 4, rel=1e-12)
    # the floor's share of a bin, noise_psd / T, is rounding: (1e-15 of the offset)^2 here
    assert est.mean("noise_psd") / grid.duration < (1e-15 * offset) ** 2


def test_floor_span_across_0_hz_reads_the_mirrored_bins_but_not_the_dc_line(monkeypatch):
    # a record is real, so bin -k of its two-sided periodogram holds |a_k|^2:
    # a 0.98 GHz tone at bin 64 takes offsets -98 .. -33 through bins 34 .. 0 .. 31,
    # which hold a small tone at bin 4 twice; bin 0 holds the DC line and bin 128
    # the tone's harmonic, no floor
    amplitude, small, offset, m = 3.0, 0.2, 5.0, MID_GRID.n_samples // 8
    bins = np.abs(64 + _floor_offsets(MID_GRID))
    assert bins.size == 132 and np.count_nonzero(bins == 4) == 2 and np.count_nonzero(bins % 64 == 0) == 2

    def intensity(r, k):
        return offset + amplitude * np.cos(2 * np.pi * 64 * k / m) + small * np.cos(2 * np.pi * 4 * k / m)

    est = _estimate_of(monkeypatch, intensity, grid=MID_GRID, f_m=64 * MID_GRID.df)
    assert est.metadata["lattice_bins"] == 64
    want = 2 * small**2 / 4 * MID_GRID.duration / (bins.size - 2)
    assert est.mean("noise_psd") == pytest.approx(want, rel=1e-12)
    assert est.mean("line_power") == pytest.approx(amplitude**2 / 4 - want / MID_GRID.duration, rel=1e-12)


@pytest.mark.parametrize("target", [0.6e9, 1e9])
@pytest.mark.parametrize("kind, gamma, exact", [("ssb", 0.39, snr_ssb), ("pm", 0.41, snr_pm)], ids=["ssb", "pm"])
def test_mc_snr_matches_analytic_for_a_tone_near_1_ghz(kind, gamma, exact, target):
    # the tone's floor bins reach 0 Hz and 2 f_m, where the mean intensity
    # and the tone's harmonic put their lines: those bins are left out
    welch = WelchConfig(nperseg=32768)
    f_m = welch.snap_frequency(target, MID_GRID.dt)
    link = reference_link(scheme_kind=kind, gamma=gamma).with_delay_for_center(f_m).with_modulation_frequency(f_m)
    est = estimate_snr(link, MID_GRID, n_realizations=12, seed=5, welch=welch)
    assert est.snr_db == pytest.approx(exact(link).snr_db_hz, abs=max(3 * est.snr_stderr_db, 0.5))


def test_white_noise_gives_its_two_sided_density(monkeypatch):
    sigma, m = 0.7, SMALL_GRID.n_samples // 8
    est = _estimate_of(monkeypatch, lambda r, k: sigma * realization_rng(78, r).standard_normal(k.size), n=16)
    want = sigma**2 * SMALL_GRID.duration / m  # sigma^2 over the detection sample rate
    assert abs(est.mean("noise_psd") - want) <= 3 * est.stderr("noise_psd")
    assert abs(est.mean("line_power")) <= 3 * est.stderr("line_power")


def test_snr_bias_at_2_16_samples_is_a_small_fraction_of_its_standard_error():
    # 16 seeds x {SSB, PM}, the smoke benchmark's links and 8 realizations:
    # the 32 estimates read -0.042 dB from the exact SNR on average, spread
    # by 0.430 dB, while each reports a standard error of 0.342 dB on
    # average.  The average's own standard error is 0.430 / sqrt(32) =
    # 0.076 dB, 0.22 of one estimate's, so three of them are 2/3 of it: the
    # bound.  The measured bias is 0.12 of it; Welch's +0.70 dB was 2.0
    errors, stderrs = [], []
    for kind, gamma, exact in (("ssb", 0.39, snr_ssb), ("pm", 0.41, snr_pm)):
        link, _ = _retuned(reference_link(scheme_kind=kind, gamma=gamma), SMALL_GRID, BAND_WELCH)
        for seed in range(16):
            est = estimate_snr(link, SMALL_GRID, n_realizations=8, seed=seed, welch=BAND_WELCH)
            errors.append(est.snr_db - exact(link).snr_db_hz)
            stderrs.append(est.snr_stderr_db)
    assert abs(np.mean(errors)) <= 2 / 3 * np.mean(stderrs)


# --- band-limited propagation ------------------------------------------------------


def _long_double_chain(link, grid, spectrum):
    """Intensity of ``_reference_chain`` on the same N-bin spectrum, in long double through scipy.fft."""
    ld = np.longdouble
    freqs = np.fft.fftfreq(grid.n_samples, ld(grid.dt))
    field = scipy.fft.ifft(spectrum.astype(np.clongdouble), norm="forward")
    delayed = scipy.fft.ifft(scipy.fft.fft(field) * np.exp(-2j * np.pi * freqs * ld(link.delay)))
    m1, m2 = build_scheme(link.scheme)
    k = np.clongdouble(link.interferometer.arm_ratio_k)
    t = np.arange(grid.n_samples) * ld(grid.dt)

    def evaluate(m):
        return sum(np.clongdouble(c) * np.exp(2j * np.pi * n * ld(m.f_m) * t) for n, c in m.coeffs.items())

    combined = field * evaluate(m1) + delayed * evaluate(m2) * (k * np.exp(-1j * ld(link.carrier_phase)))
    dispersion = np.exp(-1j * ld(link.phi) / 2 * (2 * np.pi * freqs) ** 2)
    out = scipy.fft.ifft(scipy.fft.fft(combined) * dispersion)
    return out.real**2 + out.imag**2


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is float64 here")
@pytest.mark.parametrize("link", LINKS.values(), ids=LINKS.keys())
def test_band_intensity_as_accurate_as_full_length_chain(link):
    plan = _plan(link, SMALL_GRID)
    assert plan.band < SMALL_GRID.n_samples
    drawn = synthesize_field(link.spectrum, SMALL_GRID, realization_rng(3, 1), plan=plan)
    spectrum = _scattered(drawn, SMALL_GRID.n_samples)  # the same field on all N bins
    exact = _long_double_chain(link, SMALL_GRID, spectrum)
    full = _reference_chain(link, SMALL_GRID, spectrum)
    band = propagate(drawn, link, SMALL_GRID, plan=plan)

    def errors(intensity):
        error = np.abs(intensity - exact)
        return float(np.max(error / exact)), float(error.max() / exact.max())

    # the float64 chains sit about 5e-14 of the peak from the long-double
    # chain; the band chain modulates by exact bin shifts where the full-length
    # chain rounds its phases, and link by link its errors are 0.5-1.2 times
    # the full-length chain's; the factor allows that spread, while a lost or
    # aliased in-band bin costs orders of magnitude more
    for got, want in zip(errors(band), errors(full)):
        assert got <= 1.5 * want


def test_band_size():
    n = SMALL_GRID.n_samples
    # F = B/2 + f_m: 210 GHz at 3.2 nm and 410 GHz at 6.4 nm, against
    # 2 F + (c + outer) df < M df with c + outer = 160 + 25 bins of df = 61 MHz
    for nm, band in ((3.2, n // 8), (6.4, n // 4)):
        link, _ = _retuned(reference_link(bandwidth_nm=nm), SMALL_GRID, BAND_WELCH)
        assert _plan(link, SMALL_GRID).band == band
    with pytest.raises(ConfigurationError, match="^f_m:"):
        _plan(reference_link(f_m=10e9), SMALL_GRID)  # 163.84 bins of df


def test_modulated_tone_off_the_lattice_is_rejected():
    # 163.84 cycles of 10 GHz in the record: no bin shift moves the field by that
    link = reference_link(f_m=10e9)
    for call in (
        lambda: _plan(link, SMALL_GRID),
        lambda: propagate(synthesize_field(link.spectrum, SMALL_GRID, realization_rng(3, 1)), link, SMALL_GRID),
    ):
        with pytest.raises(ConfigurationError, match="^f_m:"):
            call()
    # a constant arm has no tone to place: the unmodulated link takes any f_m,
    # its nearest bin only sizing the band the estimate reads
    unmodulated = reference_link(scheme_kind="unmodulated", f_m=10e9)
    assert _plan(unmodulated, SMALL_GRID).band == SMALL_GRID.n_samples // 8


@pytest.mark.parametrize("m1_coeffs", [{0: 0.0}, {1: 0.3}], ids=["both-empty", "delayed-empty"])
def test_an_arm_without_coefficients_adds_no_light(m1_coeffs):
    # m(t) = 0 drops an arm's field; with both arms so, no arm writes the
    # workspace's sum buffer, and what it held before must not show through
    scheme = SchemeConfig(kind=ModulationKind.CUSTOM, f_m=LINKS["ssb"].scheme.f_m, m1_coeffs=m1_coeffs, m2_coeffs={})
    link = replace(LINKS["ssb"], scheme=scheme)
    plan = _estimate_plan(link, SMALL_GRID)
    plan = plan._replace(work=(np.empty(plan.band, complex), np.full(plan.band, 7.0 + 0j), np.empty(2**13, complex)))
    spectrum = synthesize_field(link.spectrum, SMALL_GRID, realization_rng(6, 0), plan=plan).copy()
    intensity = propagate(spectrum.copy(), link, SMALL_GRID, plan=plan)
    field = np.fft.ifft(m1_coeffs.get(1, 0) * np.roll(spectrum, plan.lattice) * plan.dispersion, norm="forward")
    np.testing.assert_allclose(intensity, abs(field) ** 2, rtol=1e-12, atol=1e-12 * intensity.max())


def _transforms(monkeypatch, run) -> dict[tuple[str, int], int]:
    """numpy.fft transforms ``run()`` makes, counted by their name and input size."""
    calls = Counter()
    for name in ("fft", "ifft", "rfft", "irfft"):

        def counting(x, *args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls[_name, np.size(x)] += 1
            return _fn(x, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    run()
    return dict(calls)


@pytest.mark.parametrize("kind", ["pm", "two_modulated_arms"])
@pytest.mark.parametrize("stride", [2, 4])
def test_shifted_band_detects_at_every_stride(kind, stride):
    # the shifted harmonics accumulate in the draw's last M bins, which the
    # zero-padding then overwrites, for any detection length from M to N
    link = LINKS[kind]
    plan = _plan(link, SMALL_GRID)
    assert plan.band == SMALL_GRID.n_samples // 8
    strided = plan._replace(detect=SMALL_GRID.n_samples // stride)
    full, got = (
        propagate(synthesize_field(link.spectrum, SMALL_GRID, realization_rng(2, 0), plan=p), link, SMALL_GRID, plan=p)
        for p in (plan, strided)
    )
    assert np.max(np.abs(got - full[::stride])) <= 1e-12 * full.max()


TRANSFORM_KINDS = ["ssb", "dsb", "pm", "polarization", "two_modulated_arms"]


@pytest.mark.parametrize("kind", TRANSFORM_KINDS)
def test_band_transform_counts(monkeypatch, kind):
    # the arms shift bins, so the only transforms detect on the full grid:
    # N/M = 8 band-length ones, one per phase ramp
    link = LINKS[kind]
    plan = _plan(link, SMALL_GRID)

    def realization():
        spectrum = synthesize_field(link.spectrum, SMALL_GRID, realization_rng(1, 0), plan=plan)
        propagate(spectrum, link, SMALL_GRID, plan=plan)

    assert _transforms(monkeypatch, realization) == {("ifft", SMALL_GRID.n_samples // 8): 8}


@pytest.mark.parametrize("kind", TRANSFORM_KINDS)
def test_band_rate_transform_counts(monkeypatch, kind):
    # inside estimate_snr each realization detects at the band rate and takes
    # its periodogram: one band-length inverse transform and one real one
    link, m = LINKS[kind], SMALL_GRID.n_samples // 8

    def ensemble():
        estimate_snr(link, SMALL_GRID, n_realizations=8, seed=1, welch=BAND_WELCH)

    assert _transforms(monkeypatch, ensemble) == {("ifft", m): 8, ("rfft", m): 8}


@pytest.mark.parametrize("nperseg", [2 * SMALL_GRID.n_samples, 3 * 2**10, 4095, 5000])
def test_estimate_snr_rejects_a_segment_that_does_not_divide_the_record(monkeypatch, nperseg):
    # a tone snapped to such a segment's bins would be off the record's lattice
    counts = _count_calls(monkeypatch)
    with pytest.raises(ConfigurationError, match="^welch.nperseg:"):
        estimate_snr(reference_link(), SMALL_GRID, n_realizations=8, welch=WelchConfig(nperseg=nperseg))
    assert counts["synthesize_field"] == 0 and counts["evaluate"] == 0


def test_estimate_snr_rejects_a_floor_off_the_record(monkeypatch):
    counts = _count_calls(monkeypatch)
    # a tone whose floor span reaches past the band's M/2 bins: an unmodulated
    # link's band holds only its 0.2 GHz source, M = 8 bins of 61 MHz at 2^16 samples
    narrow = replace(_UNMODULATED, spectrum=RectangularSpectrum(n0=1.0, b=0.2e9, carrier_f0=SPEC.carrier_f0))
    assert _plan(narrow, SMALL_GRID).band == 8
    # a 6 GHz source: 2 F = 98 bins, below c + outer = 185, so the band is the
    # whole intensity's, M = 256 > 4 F, and the floor past M/2 = 128 raises, as
    # it did before; sized by 2 F + (c + outer) df alone, M = 512 would hold it
    six = replace(narrow, spectrum=RectangularSpectrum(n0=1.0, b=6e9, carrier_f0=SPEC.carrier_f0))
    assert _plan(six, SMALL_GRID).band == 256
    for link in (narrow, six):
        with pytest.raises(ConfigurationError, match="^n_samples: the record.s bins hold no floor"):
            estimate_snr(link, SMALL_GRID, n_realizations=8, welch=BAND_WELCH)
    # a 0.5 ns record: its 1.95 GHz bins hold nothing 0.5 GHz from the tone but the tone's own
    short = SimulationGrid(dt=0.25e-12, n_samples=2**11)
    with pytest.raises(ConfigurationError, match="^n_samples: the record.s bins hold no floor"):
        estimate_snr(reference_link(f_m=62.5e9), short, n_realizations=8, welch=WelchConfig(1024))
    assert counts["synthesize_field"] == 0


@pytest.mark.parametrize("kind", ["ssb", "unmodulated"])
def test_estimate_snr_rejects_a_tone_that_snaps_to_0_hz(monkeypatch, kind):
    # 1 MHz snaps to bin 0 of a 2^12-sample segment, which holds the DC line:
    # measured there, the "line" would be the squared mean intensity
    counts = _count_calls(monkeypatch)
    with pytest.raises(ConfigurationError, match="^f_m:"):
        estimate_snr(
            reference_link(scheme_kind=kind, f_m=1e6), SMALL_GRID, n_realizations=8, seed=1,
            welch=WelchConfig(nperseg=2**12),
        )
    assert counts["synthesize_field"] == 0


# --- band-length realizations ----------------------------------------------------

TINY_GRID = SimulationGrid(dt=0.25e-12, n_samples=2**12)


class _CountingGenerator:
    """A generator that records how many normals each ``standard_normal`` call draws."""

    def __init__(self, rng):
        self.rng, self.drawn = rng, []

    def standard_normal(self, *, out):
        self.drawn.append(out.size)
        return self.rng.standard_normal(out=out)


def _band_amplitude(link, grid, m):
    """sqrt(G df / 2) at the grid's first and last m/2 bins, from the N-bin frequencies."""
    n = grid.n_samples
    amplitude = np.sqrt(np.asarray(link.spectrum.psd(grid.frequencies()), dtype=float) * (0.5 * grid.df))
    return amplitude[np.r_[0 : m // 2, n - m // 2 : n]]


@pytest.mark.parametrize(
    "grid, nm, f_m, band",
    [
        (SMALL_GRID, 3.2, None, 8),  # M = N/8
        (SMALL_GRID, 6.4, None, 4),  # M = N/4
        (SMALL_GRID, 3.2, 1600 * SMALL_GRID.df, 4),  # a tone of 97.7 GHz on the lattice widens the band: M = N/4
        (TINY_GRID, 3.2, None, 8),
    ],
)
def test_band_draw_takes_the_streams_first_normals(grid, nm, f_m, band):
    link = reference_link(bandwidth_nm=nm, f_m=f_m)
    if f_m is None:
        link, _ = _retuned(link, grid, BAND_WELCH)
    plan = _plan(link, grid)
    m, n = plan.band, grid.n_samples
    assert m == n // band
    # the band's bins, first M/2 then last M/2, take the stream's first 2M normals in one call
    stream, ahead = _CountingGenerator(realization_rng(7, 3)), realization_rng(7, 3)
    got = synthesize_field(link.spectrum, grid, stream, plan=plan)
    assert got.shape == (m,) and stream.drawn == [2 * m]
    noise = ahead.standard_normal(2 * m).view(np.complex128)
    np.testing.assert_array_equal(got, noise * _band_amplitude(link, grid, m))
    assert stream.rng.bit_generator.state == ahead.bit_generator.state
    # without a plan: all N bins take the first 2N normals, so the first M/2 are the band draw's
    full = synthesize_field(link.spectrum, grid, realization_rng(7, 3))
    noise = realization_rng(7, 3).standard_normal(2 * n).view(np.complex128)
    np.testing.assert_array_equal(full, noise * _band_amplitude(link, grid, n))
    np.testing.assert_array_equal(full[: m // 2], got[: m // 2])
    # a plan whose band is N draws exactly the grid-length draw
    whole = synthesize_field(link.spectrum, grid, realization_rng(7, 3), plan=plan._replace(band=n))
    np.testing.assert_array_equal(whole, full)


def test_band_draw_rule_holds_for_every_bit_generator():
    link, _ = _retuned(reference_link(), TINY_GRID, BAND_WELCH)
    plan = _plan(link, TINY_GRID)
    m = plan.band
    for bit_generator in (np.random.MT19937, np.random.Philox, np.random.SFC64):
        got = synthesize_field(link.spectrum, TINY_GRID, np.random.Generator(bit_generator(5)), plan=plan)
        noise = np.random.Generator(bit_generator(5)).standard_normal(2 * m).view(np.complex128)
        np.testing.assert_array_equal(got, noise * _band_amplitude(link, TINY_GRID, m))
        full = synthesize_field(link.spectrum, TINY_GRID, np.random.Generator(bit_generator(5)))
        np.testing.assert_array_equal(full[: m // 2], got[: m // 2])


@pytest.mark.parametrize("kind", ["ssb", "pm", "two_modulated_arms"])
def test_band_and_grid_length_fields_propagate_alike(kind):
    link = LINKS[kind]
    for plan in (_plan(link, SMALL_GRID), _estimate_plan(link, SMALL_GRID)):
        band = synthesize_field(link.spectrum, SMALL_GRID, realization_rng(4, 0), plan=plan)
        full = _scattered(band, SMALL_GRID.n_samples)  # the same field on all N bins
        assert band.size == plan.band < full.size
        np.testing.assert_array_equal(
            propagate(band, link, SMALL_GRID, plan=plan), propagate(full, link, SMALL_GRID, plan=plan)
        )
    with pytest.raises(ConfigurationError, match="field length"):
        propagate(np.zeros(plan.band // 2, complex), link, SMALL_GRID, plan=plan)


@pytest.mark.parametrize(
    "link, grid",
    [(link, SMALL_GRID) for link in LINKS.values()]
    + [(_retuned(reference_link(scheme_kind=k, gamma=0.41), montecarlo.DEFAULT_GRID, WelchConfig())[0],
        montecarlo.DEFAULT_GRID) for k in ("ssb", "pm")],
    ids=[*LINKS.keys(), "ssb-full", "pm-full"],
)
def test_plan_phases_from_the_non_negative_half_equal_the_full_evaluation(link, grid):
    # bins +-k hold exactly negated frequencies, so the dispersion is even and
    # the delay phasor's negative half its conjugate, bit for bit
    plan = _plan(link, grid)
    freqs = SimulationGrid(grid.dt * (grid.n_samples // plan.band), plan.band).frequencies()
    np.testing.assert_array_equal(plan.dispersion, _phasor(-link.phi * 0.5 * (2.0 * np.pi * freqs) ** 2))
    delayed = _phasor(-2.0 * np.pi * freqs * link.delay)
    delayed *= complex(link.interferometer.arm_ratio_k) * np.exp(-1j * link.carrier_phase)
    m1, m2 = build_scheme(link.scheme)
    want = [(1.0 + delayed, m1)] if m2 is m1 else [(None, m1), (delayed, m2)]
    for (got, shifts), (filt, m) in zip(plan.arms, want):
        if filt is None:  # the undelayed arm's unit filter
            assert got is None
        else:
            np.testing.assert_array_equal(got, filt)
        if m.orders() == (0,):  # a constant arm is the one shift {0: M_0}, its filter left as it is
            assert shifts == {0: m.coefficient(0)}


def _traced_estimate(monkeypatch, link, grid, welch, mark):
    """Run ``estimate_snr`` on one worker under tracemalloc; ``mark(held)`` may set a base and reset the peak.

    Returns the estimate, the traced peak and ``held``, after a first untraced
    call that loads the imports and the transform caches.
    """
    held = {}
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: mark(held) or 1)
    estimate_snr(link, grid, n_realizations=8, seed=1, welch=welch)
    held.clear()
    tracemalloc.start()
    try:
        est = estimate_snr(link, grid, n_realizations=8, seed=1, welch=welch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.metadata["workers"] == 1
    return est, peak, held


def _from_here(held):
    """Measure from this point: the current traced level is the base, the peak starts over."""
    if tracemalloc.is_tracing():
        held["base"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()


def test_one_realization_holds_band_length_buffers_only(monkeypatch):
    # measured from the built plan, as the pool starts: one worker's workspace
    # (two band buffers, 32 bytes per band bin, and 2^14 floats of scratch, 16
    # per bin at M = 2^13) and its realizations' temporaries peak at 49.4 bytes
    # per band bin for SSB and PM; 6.6 more would not hold a band-length float
    # array.  A grid-length draw held 96.7 (SSB) and 112.7 (PM) above its plan
    # at M = 2^14, without a workspace
    welch = WelchConfig(nperseg=2048)
    for kind in ("ssb", "pm"):
        link, _ = _retuned(reference_link(scheme_kind=kind, gamma=0.41), SMALL_GRID, welch)
        est, peak, held = _traced_estimate(monkeypatch, link, SMALL_GRID, welch, _from_here)
        assert (peak - held["base"]) / est.metadata["band_bins"] < 56


@pytest.mark.parametrize("kind", ["ssb", "pm"])
def test_realizations_after_the_first_allocate_no_band_length_array(monkeypatch, kind):
    # the workspace is allocated once per worker: from the end of realization 0
    # on, only small arrays come and go: 0.11 bytes per band bin at M = 2^15,
    # where one band-length array would take 8 (float) or 16 (complex)
    welch = WelchConfig(nperseg=8192)
    link, _ = _retuned(reference_link(scheme_kind=kind, gamma=0.41), MID_GRID, welch)
    periodograms, held = [], {}
    rfft = np.fft.rfft

    def first_ends(*args, **kwargs):  # realization 0 ends with its periodogram: measure from there
        coefficients = rfft(*args, **kwargs)
        periodograms.append(None)
        if len(periodograms) == 1:
            _from_here(held)
        return coefficients

    monkeypatch.setattr(np.fft, "rfft", first_ends)
    est, peak, _ = _traced_estimate(monkeypatch, link, MID_GRID, welch, lambda _: periodograms.clear())
    assert est.metadata["band_bins"] == MID_GRID.n_samples // 8
    assert len(periodograms) == 8  # one per realization
    assert peak - held["base"] < 8 * est.metadata["band_bins"]


# --- validation -------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        SimulationGrid(dt=0.25e-12, n_samples=1000)  # not a power of two
    # the 3.2 nm link's intensity spans |f| <= 2 F, F = 200 GHz + f_m: 4 F = 840 GHz exceeds a 500 GHz sample rate
    coarse = SimulationGrid(dt=2e-12, n_samples=2**16)
    link, _ = _retuned(reference_link(), coarse, BAND_WELCH)
    for call in (lambda: _plan(link, coarse), lambda: estimate_snr(link, coarse, n_realizations=8, welch=BAND_WELCH)):
        with pytest.raises(ConfigurationError, match="^dt:"):
            call()
    # 0.256 ns: the tone snaps to 3 bins of 3.9 GHz, 3 periods in the record
    fine = SimulationGrid(dt=0.25e-12, n_samples=2**10)
    with pytest.raises(ConfigurationError, match="^n_samples: record shorter than 32 modulation periods"):
        estimate_snr(reference_link(), fine, n_realizations=8, welch=WelchConfig(nperseg=1024))


def test_nyquist_margin_counts_every_harmonic_order():
    grid = SimulationGrid(dt=5e-12, n_samples=2**12)  # 200 GHz sample rate
    welch = WelchConfig(nperseg=1024)
    f_m = welch.snap_frequency(10e9, grid.dt)
    link = reference_link(f_m=f_m).with_spectrum(RectangularSpectrum(n0=1.0, b=20e9, carrier_f0=193.4e12))

    def up_to(order):
        coeffs = {n: 0.1 for n in range(-order, order + 1)}
        return replace(link, scheme=SchemeConfig(kind=ModulationKind.CUSTOM, f_m=f_m, m1_coeffs=coeffs))

    # F = B/2 + K f_m: at K = 1, 2 F + (c + outer) df = 51.5 GHz fits in M = N/2
    # bins (100 GHz); at K = 5 the intensity spans 2 F = 120 GHz either side of
    # 0, and 4 F = 240 GHz exceeds the sample rate
    assert _plan(up_to(1), grid).band == grid.n_samples // 2
    for call in (lambda: _plan(up_to(5), grid), lambda: estimate_snr(up_to(5), grid, n_realizations=8, welch=welch)):
        with pytest.raises(ConfigurationError, match="^dt:"):
            call()


def test_public_propagate_rejects_a_grid_at_or_below_the_intensity_band():
    # a constant link's F is its support's edge: b/2 = 2^38 Hz puts 4 F on the
    # sample rate 2^40 Hz exactly, and M df > 4 F fails even at M = N
    grid = SimulationGrid(dt=2.0**-40, n_samples=2**12)

    def detect(b):
        link = replace(_UNMODULATED, spectrum=RectangularSpectrum(n0=1.0, b=b, carrier_f0=SPEC.carrier_f0))
        return propagate(synthesize_field(link.spectrum, grid, realization_rng(3, 1)), link, grid)

    assert detect(2.0**39 * (1 - 2**-10)).shape == (grid.n_samples,)
    with pytest.raises(ConfigurationError, match="^dt:"):
        detect(2.0**39)
    # the 3.2 nm link at 2 ps: a 500 GHz sample rate against 4 F = 840 GHz
    coarse = SimulationGrid(dt=2e-12, n_samples=2**14)
    link, _ = _retuned(reference_link(), coarse, BAND_WELCH)
    with pytest.raises(ConfigurationError, match="^dt:"):
        propagate(synthesize_field(link.spectrum, coarse, realization_rng(3, 1)), link, coarse)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is float64 here")
@pytest.mark.parametrize("kind", ["ssb", "pm"])
def test_band_intensity_at_a_sample_rate_just_above_the_intensity_band(kind):
    # 1 THz against 4 F = 840 GHz at 3.2 nm: the intensity's |f| <= 2 F stays
    # below the 500 GHz Nyquist limit of the grid, which public propagate
    # detects on through N/M = 2 phase ramps of the half-grid band
    grid = SimulationGrid(dt=1e-12, n_samples=2**16)
    link, _ = _retuned(reference_link(scheme_kind=kind, gamma=0.41), grid, BAND_WELCH)
    plan = _plan(link, grid)
    assert plan.band == grid.n_samples // 2
    drawn = synthesize_field(link.spectrum, grid, realization_rng(3, 1), plan=plan)
    exact = _long_double_chain(link, grid, _scattered(drawn, grid.n_samples))
    band = propagate(drawn, link, grid, plan=plan)
    assert np.max(np.abs(band - exact)) <= 1e-12 * exact.max()


def test_mcestimate_requires_realizations():
    with pytest.raises(ConfigurationError):
        McEstimate(n_realizations=4, quantities={})
    with pytest.raises(ConfigurationError):
        estimate_snr(reference_link(), SMALL_GRID, n_realizations=4, seed=0)


@pytest.mark.parametrize("mean", [0.0, -2.0, math.nan])
def test_snr_in_db_needs_a_positive_mean(mean):
    est = McEstimate(n_realizations=8, quantities={"snr_linear": (mean, 1.0)})
    for name in ("snr_db", "snr_stderr_db"):
        with pytest.raises(DomainError, match="^snr_linear: ensemble mean"):
            getattr(est, name)
    positive = McEstimate(n_realizations=8, quantities={"snr_linear": (100.0, 1.0)})
    assert positive.snr_stderr_db == pytest.approx(0.1 / math.log(10.0), rel=1e-15)


def test_synthesis_nyquist_guard():
    coarse = SimulationGrid(dt=4e-12, n_samples=2**14)
    with pytest.raises(ConfigurationError):
        synthesize_field(SPEC, coarse, realization_rng(0, 0))
