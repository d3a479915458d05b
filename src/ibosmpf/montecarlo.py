"""Stochastic-field oracle: synthesize, propagate, detect, estimate.

Incoherent light is synthesized as its spectrum S: independent circular
Gaussian variates per bin, scaled by sqrt(G df / 2), the time-domain field
being ``ifft(S, norm="forward")``.  An arm with modulator m, delay tau and
complex amplitude c contributes m(t) ifft(S c exp(-j 2 pi f tau)), so arms
that share one modulator are one spectral filter.  The source has no power
outside its support and every arm is a harmonic sum, so a realization of
:func:`estimate_snr` lives on the M in-band bins from draw to detection:
the seeded stream is drawn straight into them, the arms, modulation (at a
tone f_m = c df on the lattice, harmonic n shifts them by n c bins) and
dispersion act on them, and one M-point inverse transform detects |E|^2 at
every (N/M)-th grid time.  Those samples fold the intensity's bin k + jM onto
k, and M is sized so that every fold of a bin the estimate reads lies past
the intensity's band: those bins are exact.  A modulated tone off the
lattice is rejected.  All of it is circular over the record, so the
intensity is periodic and its DFT a_k = rfft(I, norm="forward") holds the
tone in bin c alone: the line is |a_c|^2 less the floor's share of that
bin, the two-sided floor density the mean |a_k|^2 T 0.5-1.5 GHz from c
over the bins that hold no line (the mean intensity's lines, DC among them,
are on the multiples of c).
:func:`estimate_psd` (Welch), :func:`extract_line` and :func:`floor_density`
estimate them from any record.

Reproducibility: realization r of root seed s draws from the stream
seeded by (s, r), and writes only its own result slot, so an ensemble's
values do not depend on the order or the threads its realizations run on.
The 2N - 2M powerless bins' normals are drawn once per process: a
least-recently-used cache of 256 entries, shared by the pool workers, maps
the pickled bit generator ahead of them and their count to the state after
them, which a later link at that seed sets instead; no output depends on
what it holds.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import LinkConfig
from .decomposition import SpectralDecomposition
from .errors import ConfigurationError, DomainError
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


# bench default: 4 THz sample rate, 2**20 samples per realization
DEFAULT_GRID = SimulationGrid(dt=0.25e-12, n_samples=2**20)

# Welch segments per batched transform in estimate_psd
_WELCH_ROWS = 8
# bytes the concurrent realizations of one estimate_snr call may hold, at 48 per band bin
# each; at 2^20 samples (M = 2^17) a worker peaks at 33.2 per band bin, nearly all of it its workspace (33.0)
_INFLIGHT_BYTES = 2**27
# offsets from the tone [Hz]: the record bins nearest them, every bin between, on both
# sides, hold the floor, the mean of their periodogram over the bins that hold no line
_FLOOR_SPAN = (0.5e9, 1.5e9)


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


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class _Plan(NamedTuple):
    """Factors of one (link, grid) pair that no realization changes, on the M in-band bins."""

    amplitude: np.ndarray | None  # sqrt(G df / 2) on the band's bins; None: synthesize_field computes it per call
    band: int  # M: the field's bins are the grid's first and last M/2
    lattice: int  # c
    detect: int  # d: propagate squares |E| at every (N/d)-th grid time
    # (spectral filter, bin shifts {n c mod M: M_n}) per distinct modulator; the filter is None
    # for an undelayed arm's 1, a constant m is the one shift {0: M_0}, an m of no coefficients none
    arms: tuple[tuple[np.ndarray | None, dict[int, complex]], ...]
    dispersion: np.ndarray  # exp(-j phi (2 pi f)^2 / 2) on the in-band bins
    work: tuple[np.ndarray, ...] | None  # a pool worker's buffers: the draw, the harmonic sum, propagate's 2^13 complex


def _amplitude(spectrum: OpticalSpectrum, grid: SimulationGrid, band: int) -> np.ndarray:
    """Synthesis amplitude sqrt(G df / 2) of circular Gaussian variates at the grid's first and last band/2 bins."""
    if 0.5 * grid.sample_rate < spectrum.support()[1]:
        raise ConfigurationError("dt: grid violates the spectrum's Nyquist limit")
    psd = np.asarray(spectrum.psd(np.fft.fftfreq(band, grid.dt * (grid.n_samples // band))), dtype=float)
    psd *= 0.5 * grid.df
    return np.sqrt(psd, out=psd)


def _plan(link: LinkConfig, grid: SimulationGrid) -> _Plan:
    """Build the grid-only factors of propagation once; every realization of an ensemble reuses them.

    The source has no power outside its support, every arm is a harmonic
    sum, and delay and dispersion act bin by bin, so the modulated field
    occupies |f| <= F = max|support| + K f_m, K the largest harmonic order
    over both arms, and its intensity |f| <= 2 F; a grid whose sample rate
    N df is not above 4 F raises.  The tone f_m = c df makes c whole cycles
    in the record; a modulated link's tone off that lattice raises.  The band
    M is the smallest power of two up to N with M df > 2 F + min(2 F, r df),
    r = c + outer the highest bin :func:`estimate_snr` reads, outer df the
    far end of ``_FLOOR_SPAN``: the field fits, and detection at M samples
    folds intensity bin k + jM onto k, past 2 F for every k <= r.  Where
    r df > 2 F the whole intensity band fits, and a floor past M/2 raises.
    """
    m1, m2 = build_scheme(link.scheme)
    order = max((abs(n) for m in (m1, m2) for n in m.orders()), default=0)
    n = grid.n_samples
    cycles = m1.f_m * grid.duration
    lattice = round(cycles)
    if order and abs(cycles - lattice) > 4.0 * math.ulp(cycles):
        raise ConfigurationError("f_m: a modulated tone must make a whole number of cycles in the record")
    edge = max(abs(f) for f in link.spectrum.support()) + order * m1.f_m
    if n * grid.df <= 4.0 * edge:
        raise ConfigurationError(f"dt: the sample rate must exceed 4 (max|support| + K f_m) = {4.0 * edge:g} Hz")
    reach = 2.0 * edge / grid.df  # in bins: the intensity's 2F, then the highest bin the estimate reads
    band = 2
    while band < n and band <= reach + min(reach, lattice + round(_FLOOR_SPAN[1] / grid.df)):
        band *= 2
    h, freqs = band // 2, np.arange(band // 2 + 1) * grid.df  # |f| of bins 0 .. M/2, as fftfreq gives them
    delayed, dispersion = np.empty((2, band), complex)
    angles = (-2.0 * np.pi * freqs * link.delay, -link.phi * 0.5 * (2.0 * np.pi * freqs) ** 2)
    for phasor, angle in zip((delayed, dispersion), angles):  # bin -k holds -f_k exactly: each phase taken once
        np.cos(angle, out=phasor.real[: h + 1])
        np.sin(angle, out=phasor.imag[: h + 1])
        phasor[h + 1 :] = phasor[h - 1 : 0 : -1]
    np.negative(delayed.imag[h:], out=delayed.imag[h:])  # the delay's phase is odd in f
    delayed *= complex(link.interferometer.arm_ratio_k) * np.exp(-1j * link.carrier_phase)
    pairs = [(np.add(delayed, 1.0, out=delayed), m1)] if m2 is m1 else [(None, m1), (delayed, m2)]

    def modulation(m):  # f_m t = c k / M at band time k: harmonic n moves bin j to j + n c
        shifts = {}
        for n, coefficient in m.coeffs.items():
            shifts[n * lattice % band] = shifts.get(n * lattice % band, 0) + coefficient
        return shifts

    return _Plan(
        amplitude=None, band=band, lattice=lattice, detect=n, dispersion=dispersion,
        arms=tuple((f, modulation(m)) for f, m in pairs),
        work=None,  # without a workspace each call allocates its own buffers
    )


@functools.lru_cache(maxsize=256)
def _state_after(stream: bytes, count: int) -> dict:
    """State the pickled bit generator ``stream`` reaches past ``count`` normals, drawn 2^14 at a time and dropped.

    ``stream`` is ``pickle.dumps`` of a generator of this process: no outside bytes reach ``pickle.loads``.
    """
    rng, chunk = np.random.Generator(pickle.loads(stream)), np.empty(2**14)
    for start in range(0, count, chunk.size):
        rng.standard_normal(out=chunk[: count - start])
    return rng.bit_generator.state


def synthesize_field(
    spectrum: OpticalSpectrum, grid: SimulationGrid, rng: np.random.Generator, *, plan: _Plan | None = None
) -> np.ndarray:
    """Spectrum S of a complex envelope with PSD G: per-bin circular Gaussian draws.

    S is in FFT bin order, the field ``numpy.fft.ifft(S, norm="forward")``.
    With a ``plan`` (whose link's spectrum is ``spectrum``) S is its M in-band
    bins, the grid's first and last M/2, equal to those of the N-bin draw: the stream
    skips the 2N - 2M normals between to the state :func:`_state_after` caches for it, and
    a plan's workspace (4.3 MB at DEFAULT_GRID) holds the draw.
    """
    band = grid.n_samples if plan is None else plan.band
    amplitude = _amplitude(spectrum, grid, band) if plan is None or plan.amplitude is None else plan.amplitude
    xhat = plan.work[0] if plan and plan.work else np.empty(band, complex)
    normals, skip = xhat.view(np.float64), 2 * (grid.n_samples - band)  # real and imaginary part per bin
    rng.standard_normal(out=normals[:band])
    if skip:  # the powerless bins between
        rng.bit_generator.state = _state_after(pickle.dumps(rng.bit_generator), skip)
    rng.standard_normal(out=normals[band:])
    for part in (xhat.real, xhat.imag):  # through the float views: no complex copy of the amplitude
        np.multiply(part, amplitude, out=part)
    return xhat


def propagate(spectrum: np.ndarray, link: LinkConfig, grid: SimulationGrid, *, plan: _Plan | None = None) -> np.ndarray:
    """Detected intensity |E(t)|^2 after interferometer, modulation, dispersion.

    ``spectrum``, as :func:`synthesize_field` returns it (N or the plan's M bins), is
    overwritten and may hold the result: pass a copy to keep it.  The differential delay is
    an exact frequency-domain phase in one spectral filter per distinct arm modulator;
    dispersion is one all-pass product.  Both, and the modulation (bin shifts of a tone that
    must be on the lattice), run on the M in-band bins: each harmonic of each arm adds its
    shifted product into one zeroed sum, 2^13 bins at a time.  Detection on the ``plan.detect`` samples d
    (M inside ``estimate_snr``, N without a plan) takes d/M M-point inverse transforms behind
    phase ramps: within 7.8e-16 of the peak of one zero-padded d-point transform at 2^20 samples.
    """
    if plan is None:
        plan = _plan(link, grid)
    n, m, d, half = grid.n_samples, plan.band, plan.detect, plan.band // 2
    if spectrum.shape not in ((n,), (m,)):
        raise ConfigurationError("field length matches neither the grid nor the plan's band")
    band = spectrum if spectrum.size == m else np.concatenate((spectrum[:half], spectrum[n - half :]))
    draw, total, scratch = plan.work or (band, np.empty(m, complex), np.empty(2**13, complex))
    total.fill(0)
    last = len(plan.arms) - 1
    for k, (spectral_filter, modulation) in enumerate(plan.arms):
        arm = band if spectral_filter is None else np.multiply(band, spectral_filter, out=band if k == last else None)
        for shift, coefficient in modulation.items():  # M_n shifted by n c bins, a chunk at a time into the sum
            for target, source in ((total[:shift], arm[m - shift :]), (total[shift:], arm[: m - shift])):
                for j in range(0, source.size, scratch.size):
                    part = source[j : j + scratch.size]
                    target[j : j + part.size] += np.multiply(part, coefficient, out=scratch[: part.size])
    total *= plan.dispersion
    if d == m:  # |E|^2 into the draw's buffer, the field through the sum's
        intensity = np.abs(np.fft.ifft(total, norm="forward", out=total), out=draw.view(np.float64)[:m])
    else:  # time p + jR (R = d/M) is band sample j of the sum times exp(j 2 pi k p / d) at bin k
        intensity = np.empty(d)
        ramp = np.fft.fftfreq(m, d / (2.0 * np.pi * m))  # 2 pi k / d
        for p in range(d // m):
            np.multiply(total, _phasor(ramp * p), out=draw)
            np.abs(np.fft.ifft(draw, norm="forward", out=draw), out=intensity[p :: d // m])
    return np.square(intensity, out=intensity)


def estimate_psd(intensity: np.ndarray, grid: SimulationGrid, welch: WelchConfig) -> SpectralDecomposition:
    """Two-sided Welch density: Hann window, 50 % overlap, constant detrend.

    The segments and the scaling are those of ``scipy.signal.welch``.  The
    intensity is real, so the periodograms are one-sided and mirrored onto
    the negative frequencies.  The returned decomposition carries no
    lines; :func:`extract_line` integrates a tone from its continuum.
    """
    nperseg = welch.nperseg
    if nperseg > intensity.size:
        raise ConfigurationError("Welch segment longer than the record")
    segments = sliding_window_view(intensity, nperseg)[:: nperseg - nperseg // 2]
    # periodic Hann window, computed as scipy.signal.get_window("hann", nperseg)
    window = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nperseg + 1)[:-1])
    power = np.zeros(nperseg // 2 + 1)
    for start in range(0, len(segments), _WELCH_ROWS):
        block = segments[start : start + _WELCH_ROWS]
        block = block - block.mean(axis=1, keepdims=True)
        block *= window
        squares = np.fft.rfft(block, axis=1).view(np.float64)  # real and imaginary part per bin
        np.square(squares, out=squares)
        for row in squares:  # in row order, as numpy's sum over axis 0 adds them
            power += np.add(row[0::2], row[1::2], out=row[0::2])
    # each one-sided bin is the two-sided density at +f and at -f; for an
    # even segment the Nyquist bin is held once, at -fs/2
    density = power / (len(segments) * grid.sample_rate * (window * window).sum())
    freqs = np.fft.rfftfreq(nperseg, 1.0 / grid.sample_rate)
    positive = slice(0, freqs.size - (nperseg % 2 == 0))
    return SpectralDecomposition(
        frequencies=np.concatenate((-freqs[:0:-1], freqs[positive])),
        continuum=np.concatenate((density[:0:-1], density[positive])),
        line_frequencies=np.empty(0),
        line_powers=np.empty(0),
        metadata={"path": "welch", "nperseg": welch.nperseg},
    )


def extract_line(freqs: np.ndarray, density: np.ndarray, f_line: float, df: float) -> tuple[float, float]:
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
    return (core - floor * 5) * df, floor


def floor_density(
    freqs: np.ndarray, density: np.ndarray, f_center: float, gap: int = 4, span: int = 12, statistic: str = "mean"
) -> float:
    """Continuum level near ``f_center``, excluding the central +-gap bins."""
    idx = int(np.argmin(np.abs(freqs - f_center)))
    left = density[max(idx - span, 0) : max(idx - gap, 0)]
    right = density[idx + gap + 1 : idx + span + 1]
    window = np.concatenate([left, right])
    if window.size == 0:
        raise ConfigurationError("no floor bins available")
    return float(np.median(window) if statistic == "median" else window.mean())


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
        if not (mean := self.mean("snr_linear")) > 0:
            raise DomainError(f"snr_linear: ensemble mean {mean:g} is not above 0; no dB level")
        return 10.0 * math.log10(mean)

    @property
    def snr_stderr_db(self) -> float:
        mean, err = self.quantities["snr_linear"]
        return 10.0 / math.log(10.0) * err / mean


def estimate_snr(
    link: LinkConfig, grid: SimulationGrid = DEFAULT_GRID, n_realizations: int = 64, seed: int = 0,
    welch: WelchConfig = WelchConfig(),
) -> McEstimate:
    """Ensemble SNR estimate: line power over local continuum, per hertz, from each record's periodogram.

    The tone is ``link.scheme.f_m`` snapped to the nearest Welch bin (pass
    ``link.with_modulation_frequency(f)`` to measure at f); the snapped value
    is recorded and must be used for any analytic comparison.
    ``welch.nperseg`` must divide the record, which puts the tone on the
    record's lattice, and sets nothing else.  A tone that snaps to 0 Hz, the
    DC line's bin, or makes fewer than 32 cycles in the record is rejected.
    """
    if n_realizations < 8:
        raise ConfigurationError("at least 8 realizations are required")
    if grid.n_samples % welch.nperseg:
        raise ConfigurationError("welch.nperseg: the segment must divide the record's n_samples")
    f_m = welch.snap_frequency(link.scheme.f_m, grid.dt)
    link = link.with_modulation_frequency(f_m)
    plan = _plan(link, grid)
    if not plan.lattice:
        raise ConfigurationError("f_m: the tone snaps to 0 Hz, the bin of the DC line")
    # the synthesis amplitude, and detection at the M band samples: exact in the bins 0 .. c + outer read below
    plan = plan._replace(amplitude=_amplitude(link.spectrum, grid, plan.band), detect=plan.band)

    if plan.lattice < 32:  # c: the tone's cycles in the record
        raise ConfigurationError("n_samples: record shorter than 32 modulation periods")
    inner, outer = (round(f / grid.df) for f in _FLOOR_SPAN)
    span = np.abs(plan.lattice + np.r_[-outer : 1 - inner, inner : outer + 1])  # |a_-k| = |a_k|
    if not inner or span.max() > plan.band // 2:  # 1 GHz bins hold the tone in its floor; M/2 is the last
        raise ConfigurationError("n_samples: the record's bins hold no floor 0.5-1.5 GHz from the tone")
    # the mean intensity repeats with the tone, so its lines, DC among them, are the bins k c: no floor
    floor = span[span % plan.lattice != 0]
    values = np.empty((3, n_realizations))  # line, floor, SNR

    def worker(first: int) -> None:  # realizations first, first + width, ... on one workspace
        own = plan._replace(work=(*np.empty((2, plan.band), complex), np.empty(2**13, complex)))
        for r in range(first, n_realizations, width):
            spectrum = synthesize_field(link.spectrum, grid, realization_rng(seed, r), plan=own)
            intensity = propagate(spectrum, link, grid, plan=own)
            # the second buffer, which held the summed spectrum, is free once |E|^2 is in the first
            coefficients = np.fft.rfft(intensity, norm="forward", out=own.work[1][: plan.band // 2 + 1])
            values[1, r] = np.mean(abs(coefficients[floor]) ** 2) * grid.duration
            values[0, r] = abs(coefficients[plan.lattice]) ** 2 - values[1, r] / grid.duration
            values[2, r] = values[0, r] / values[1, r]

    # the draws, transforms and array arithmetic release the interpreter
    # lock, so realizations overlap on threads; the width bounds their memory
    width = min(_usable_cpus(), n_realizations, max(1, _INFLIGHT_BYTES // (48 * plan.band)))
    with ThreadPoolExecutor(max_workers=width) as pool:
        list(pool.map(worker, range(width)))  # raises what a realization raised

    return McEstimate(
        n_realizations=n_realizations,
        quantities={
            name: (float(row.mean()), float(row.std(ddof=1) / math.sqrt(n_realizations)))
            for name, row in zip(("line_power", "noise_psd", "snr_linear"), values)
        },
        metadata=dict(
            f_m=f_m, seed=seed, nperseg=welch.nperseg, dt=grid.dt,
            band_bins=plan.band, lattice_bins=plan.lattice, workers=width,
        ),
    )
