"""Stochastic-field oracle: synthesize, propagate, detect, estimate.

Incoherent light is synthesized in the frequency domain (independent
circular Gaussian variates per bin, scaled by sqrt(G df)), pushed through
the interferometer / modulator / dispersion chain sample-by-sample, and
square-law detected.  Welch-averaged periodograms calibrated in power/Hz
then estimate the intensity PSD; discrete lines are integrated over a few
bins with the local floor subtracted.

Reproducibility: realization r of root seed s draws from the stream
seeded by (s, r), so ensembles are order-independent and parallel-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import LinkConfig
from .decomposition import SpectralDecomposition
from .errors import ConfigurationError
from .modulation import build_scheme
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


def synthesize_field(
    spectrum: OpticalSpectrum, grid: SimulationGrid, rng: np.random.Generator
) -> np.ndarray:
    """Complex envelope with PSD G: per-bin circular Gaussian synthesis."""
    freqs = grid.frequencies()
    amplitude = np.sqrt(np.asarray(spectrum.psd(freqs), dtype=float) * grid.df)
    if 0.5 * grid.sample_rate < spectrum.support()[1]:
        raise ConfigurationError("grid violates the spectrum's Nyquist limit")
    noise = rng.standard_normal(2 * grid.n_samples).view(np.complex128)
    xhat = amplitude * noise * math.sqrt(0.5)
    return np.fft.ifft(xhat, norm="forward")


def propagate(field: np.ndarray, link: LinkConfig, grid: SimulationGrid) -> np.ndarray:
    """Detected intensity |E(t)|^2 after interferometer, modulation, dispersion.

    The differential delay is applied as an exact frequency-domain phase
    (no sample rounding); dispersion is one all-pass multiplication.
    """
    if field.shape != (grid.n_samples,):
        raise ConfigurationError("field length does not match the grid")
    freqs = grid.frequencies()
    fhat = np.fft.fft(field)
    delayed = np.fft.ifft(fhat * np.exp(-2j * np.pi * freqs * link.delay))

    m1, m2, k_scheme = build_scheme(link.scheme)
    k_total = complex(k_scheme) * complex(link.interferometer.arm_ratio_k)
    t = grid.times()
    arm1 = field * m1.evaluate(t)
    arm2 = delayed * m2.evaluate(t) * (k_total * np.exp(-1j * link.carrier_phase))
    combined = arm1 + arm2

    dispersion_phase = np.exp(-1j * link.phi * 0.5 * (2.0 * np.pi * freqs) ** 2)
    detected = np.fft.ifft(np.fft.fft(combined) * dispersion_phase)
    return np.abs(detected) ** 2


def estimate_psd(
    intensity: np.ndarray, grid: SimulationGrid, welch: WelchConfig = WelchConfig()
) -> SpectralDecomposition:
    """Two-sided Welch density: Hann window, 50 % overlap, constant detrend.

    The returned decomposition carries no lines; :func:`extract_line`
    integrates a tone from its continuum.
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
        return_onesided=False,
        scaling="density",
    )
    return SpectralDecomposition(
        frequencies=np.fft.fftshift(freqs),
        continuum=np.fft.fftshift(density),
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
    for r in range(n_realizations):
        rng = realization_rng(seed, r)
        field_r = synthesize_field(link.spectrum, grid, rng)
        intensity = propagate(field_r, link, grid)
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
