"""Stochastic-field oracle: synthesize, propagate, detect, estimate.

Incoherent light is synthesized in the frequency domain (independent
circular Gaussian variates per bin, scaled by sqrt(G df / 2)), pushed
through the interferometer / modulator / dispersion chain with the delay
and the dispersion applied as exact frequency-domain phases, and
square-law detected.  The factors that depend only on the link and the
grid (synthesis amplitude, delay phase, both arm waveforms, dispersion
all-pass) are computed once per ensemble and shared by its realizations.
Welch-averaged periodograms of the real intensity, calibrated in power/Hz
and mirrored onto negative frequencies, then estimate the two-sided
intensity PSD; discrete lines are integrated over a few bins with the
local floor subtracted.

Reproducibility: realization r of root seed s draws from the stream
seeded by (s, r), so ensembles are order-independent and parallel-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import LinkConfig
from .decomposition import SpectralDecomposition
from .errors import ConfigurationError
from .modulation import _phasor, build_scheme
from .spectrum import OpticalSpectrum


@dataclass(frozen=True)
class SimulationGrid:
    """Uniform time grid for one realization."""

    dt: float  # sample interval [s]
    n_samples: int  # power of two

    def __post_init__(self):
        if self.dt <= 0 or not math.isfinite(self.dt):
            raise ConfigurationError("dt must be positive and finite")
        n = self.n_samples
        if n < 2 or (n & (n - 1)) != 0:
            raise ConfigurationError("n_samples must be a power of two")

    @property
    def sample_rate(self) -> float:
        return 1.0 / self.dt

    @property
    def df(self) -> float:
        return 1.0 / (self.n_samples * self.dt)

    @property
    def duration(self) -> float:
        return self.n_samples * self.dt

    def frequencies(self) -> np.ndarray:
        return np.fft.fftfreq(self.n_samples, self.dt)

    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) * self.dt

    def validate_for(self, bandwidth: float, f_m: float) -> None:
        """Nyquist margin and record-length checks for a planned run."""
        if self.sample_rate < 4.0 * (bandwidth + 2.0 * f_m):
            raise ConfigurationError(
                "sample rate below the 4 (B + 2 f_m) Nyquist margin"
            )
        if f_m > 0 and self.duration < 32.0 / f_m:
            raise ConfigurationError("record shorter than 32 modulation periods")


# bench default: 4 THz sample rate, 2**20 samples per realization
DEFAULT_GRID = SimulationGrid(dt=0.25e-12, n_samples=2**20)


@dataclass(frozen=True)
class WelchConfig:
    """Averaged-periodogram segment length (Hann window, 50 % overlap)."""

    nperseg: int = 32768

    def __post_init__(self):
        if self.nperseg < 16:
            raise ConfigurationError("nperseg too small")

    def bin_width(self, dt: float) -> float:
        return 1.0 / (self.nperseg * dt)

    def snap_frequency(self, f: float, dt: float) -> float:
        """Nearest analysis-bin frequency (keeps tones leakage-free)."""
        df = self.bin_width(dt)
        return round(f / df) * df


def realization_rng(root_seed: int, realization: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(root_seed), int(realization))))


class _Plan(NamedTuple):
    """Factors of one (link, grid) pair that no realization changes."""

    amplitude: np.ndarray  # sqrt(G df / 2) per FFT bin
    delay_phase: np.ndarray  # exp(-j 2 pi f tau)
    arm1: np.ndarray  # m1(t)
    arm2: np.ndarray  # k_total exp(-j theta) m2(t)
    dispersion: np.ndarray  # exp(-j phi (2 pi f)^2 / 2)


def _amplitude(spectrum: OpticalSpectrum, grid: SimulationGrid) -> np.ndarray:
    """Per-bin synthesis amplitude sqrt(G df / 2) of circular Gaussian variates."""
    if 0.5 * grid.sample_rate < spectrum.support()[1]:
        raise ConfigurationError("grid violates the spectrum's Nyquist limit")
    psd = np.asarray(spectrum.psd(grid.frequencies()), dtype=float)
    return np.sqrt(psd * (0.5 * grid.df))


def _plan(link: LinkConfig, grid: SimulationGrid) -> _Plan:
    """Build the grid-only factors once; every realization of an ensemble reuses them."""
    freqs = grid.frequencies()
    m1, m2, k_scheme = build_scheme(link.scheme)
    k_total = complex(k_scheme) * complex(link.interferometer.arm_ratio_k)
    t = grid.times()
    arm1 = m1.evaluate(t)
    arm2 = (arm1 if m2 is m1 else m2.evaluate(t)) * (k_total * np.exp(-1j * link.carrier_phase))
    return _Plan(
        amplitude=_amplitude(link.spectrum, grid),
        delay_phase=_phasor(-2.0 * np.pi * freqs * link.delay),
        arm1=arm1,
        arm2=arm2,
        dispersion=_phasor(-link.phi * 0.5 * (2.0 * np.pi * freqs) ** 2),
    )


def synthesize_field(
    spectrum: OpticalSpectrum,
    grid: SimulationGrid,
    rng: np.random.Generator,
    *,
    plan: _Plan | None = None,
) -> np.ndarray:
    """Complex envelope with PSD G: per-bin circular Gaussian synthesis.

    ``plan`` must come from a link whose spectrum is ``spectrum``.
    """
    # scipy.fft gives numpy.fft's values but allocates one work buffer per
    # transform where numpy.fft allocates two; at 2^20 points the page
    # faults on the second cost about a fifth of the transform's time
    from scipy import fft as sp_fft

    amplitude = _amplitude(spectrum, grid) if plan is None else plan.amplitude
    xhat = rng.standard_normal(2 * grid.n_samples).view(np.complex128)
    xhat *= amplitude
    return sp_fft.ifft(xhat, norm="forward", overwrite_x=True)


def propagate(
    field: np.ndarray, link: LinkConfig, grid: SimulationGrid, *, plan: _Plan | None = None
) -> np.ndarray:
    """Detected intensity |E(t)|^2 after interferometer, modulation, dispersion.

    The differential delay is applied as an exact frequency-domain phase
    (no sample rounding); dispersion is one all-pass multiplication.
    ``plan`` must come from ``_plan(link, grid)``.
    """
    from scipy import fft as sp_fft

    if field.shape != (grid.n_samples,):
        raise ConfigurationError("field length does not match the grid")
    if plan is None:
        plan = _plan(link, grid)
    delayed = sp_fft.fft(field)
    delayed *= plan.delay_phase
    delayed = sp_fft.ifft(delayed, overwrite_x=True)
    delayed *= plan.arm2
    combined = field * plan.arm1
    combined += delayed
    combined = sp_fft.fft(combined, overwrite_x=True)
    combined *= plan.dispersion
    combined = sp_fft.ifft(combined, overwrite_x=True)
    return np.abs(combined) ** 2


def estimate_psd(
    intensity: np.ndarray, grid: SimulationGrid, welch: WelchConfig = WelchConfig()
) -> SpectralDecomposition:
    """Two-sided Welch density: Hann window, 50 % overlap, constant detrend.

    The intensity is real, so the density is computed one-sided and
    mirrored onto the negative frequencies.  The returned decomposition
    carries no lines; :func:`extract_line` integrates a tone from its
    continuum.
    """
    from scipy.signal import welch as _welch

    if welch.nperseg > intensity.size:
        raise ConfigurationError("Welch segment longer than the record")
    freqs, density = _welch(
        intensity,
        fs=grid.sample_rate,
        window="hann",
        nperseg=welch.nperseg,
        noverlap=welch.nperseg // 2,
        detrend="constant",
        return_onesided=True,
        scaling="density",
    )
    # one-sided bins carry both signs: halve all but DC and, for an even
    # segment, the Nyquist bin, which the two-sided grid holds once (at -fs/2)
    even = welch.nperseg % 2 == 0
    density[1 : density.size - even] *= 0.5
    positive = slice(0, freqs.size - even)
    return SpectralDecomposition(
        frequencies=np.concatenate((-freqs[:0:-1], freqs[positive])),
        continuum=np.concatenate((density[:0:-1], density[positive])),
        line_frequencies=np.empty(0),
        line_powers=np.empty(0),
        metadata={"path": "welch", "nperseg": welch.nperseg},
    )


def extract_line(
    freqs: np.ndarray, density: np.ndarray, f_line: float, df: float
) -> tuple[float, float]:
    """Integrated line power and the local floor density around one tone.

    Integrates the 5 bins centred on the tone and subtracts the median
    floor taken from bins 4 .. 8 away on both sides.
    """
    idx = int(np.argmin(np.abs(freqs - f_line)))
    lo, hi = idx - 2, idx + 3
    if lo < 0 or hi > density.size:
        raise ConfigurationError("line too close to the grid edge")
    core = density[lo:hi].sum()
    floor = floor_density(freqs, density, f_line, 3, 8, statistic="median")
    power = (core - floor * 5) * df
    return power, floor


def floor_density(
    freqs: np.ndarray,
    density: np.ndarray,
    f_center: float,
    gap: int = 4,
    span: int = 12,
    statistic: str = "mean",
) -> float:
    """Continuum level near ``f_center``, excluding the central +-gap bins."""
    idx = int(np.argmin(np.abs(freqs - f_center)))
    left = density[max(idx - span, 0) : max(idx - gap, 0)]
    right = density[idx + gap + 1 : idx + span + 1]
    window = np.concatenate([left, right])
    if window.size == 0:
        raise ConfigurationError("no floor bins available")
    if statistic == "median":
        return float(np.median(window))
    return float(window.mean())


@dataclass
class McEstimate:
    """Ensemble mean and standard error for each estimated quantity."""

    n_realizations: int
    quantities: dict[str, tuple[float, float]]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_realizations < 8:
            raise ConfigurationError("at least 8 realizations are required")

    def mean(self, name: str) -> float:
        return self.quantities[name][0]

    def stderr(self, name: str) -> float:
        return self.quantities[name][1]

    @property
    def snr_db(self) -> float:
        return 10.0 * math.log10(self.mean("snr_linear"))

    @property
    def snr_stderr_db(self) -> float:
        mean, err = self.quantities["snr_linear"]
        return 10.0 / math.log(10.0) * err / mean


def estimate_snr(
    link: LinkConfig,
    grid: SimulationGrid = DEFAULT_GRID,
    n_realizations: int = 64,
    seed: int = 0,
    welch: WelchConfig = WelchConfig(),
    f_m: float | None = None,
    probe_frequencies: tuple[float, ...] = (),
) -> McEstimate:
    """Ensemble SNR estimate: line power over local continuum, per hertz.

    ``f_m`` defaults to the passband center snapped to the nearest Welch
    bin; the snapped value is recorded and must be used for any analytic
    comparison.  Extra probe frequencies yield floor-density estimates.
    """
    if n_realizations < 8:
        raise ConfigurationError("at least 8 realizations are required")
    if welch.nperseg > grid.n_samples:
        raise ConfigurationError("Welch segment longer than the record")
    if f_m is None:
        f_m = link.passband_center()
    f_m = welch.snap_frequency(f_m, grid.dt)
    link = link.with_modulation_frequency(f_m)
    lo, hi = link.spectrum.support()
    grid.validate_for(hi - lo, f_m)

    df = welch.bin_width(grid.dt)
    lines = np.empty(n_realizations)
    floors = np.empty(n_realizations)
    snrs = np.empty(n_realizations)
    probes = {f: np.empty(n_realizations) for f in probe_frequencies}
    plan = _plan(link, grid)
    for r in range(n_realizations):
        rng = realization_rng(seed, r)
        field_r = synthesize_field(link.spectrum, grid, rng, plan=plan)
        intensity = propagate(field_r, link, grid, plan=plan)
        decomp = estimate_psd(intensity, grid, welch)
        line, _ = extract_line(decomp.frequencies, decomp.continuum, f_m, df)
        floor = floor_density(decomp.frequencies, decomp.continuum, f_m)
        lines[r] = line
        floors[r] = floor
        snrs[r] = line / floor
        for f_probe in probe_frequencies:
            probes[f_probe][r] = floor_density(decomp.frequencies, decomp.continuum, f_probe)

    def _stats(values: np.ndarray) -> tuple[float, float]:
        return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))

    quantities = {
        "line_power": _stats(lines),
        "noise_psd": _stats(floors),
        "snr_linear": _stats(snrs),
    }
    for f_probe, values in probes.items():
        quantities[f"floor@{f_probe:.6g}"] = _stats(values)
    return McEstimate(
        n_realizations=n_realizations,
        quantities=quantities,
        metadata={"f_m": f_m, "seed": seed, "nperseg": welch.nperseg, "dt": grid.dt},
    )
