"""Baseband optical power-spectrum models for incoherent broadband light.

The source field is a stationary circular complex Gaussian process whose
double-sided baseband PSD G(f) [W/Hz] fully determines its statistics.  Two
models are provided: an ideal rectangular slice (closed forms throughout)
and a tabulated PSD interpreted as a piecewise-linear density with zero
extension.  Each model has one transform of its own, exact for its PSD:
the autocorrelation and the cross spectrum.  The intensity autoconvolution
is the cross spectrum at zero shift for every model.  The engine's
quadrature, :func:`spectral_correlation`, needs only a model's PSD; it
integrates each |f| once, magnitudes equal up to rounding sharing one row,
and takes negative f from the mirror identity CC(-f, s) = exp(-j 2 pi f s) CC(f, s).

Conventions
-----------
autocorrelation:        R0(u)   = int G(f) exp(+j 2 pi f u) df
intensity_autoconvolution: S0(f) = int G(v) G(v - f) dv
cross_spectrum:         CC(f, s) = int G(v) G(v - f) exp(+j 2 pi v s) dv

so that F[R0(u + a) R0*(u + b)](f) = exp(j 2 pi f b) * CC(f, a - b).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._quad import _NODES, _WEIGHTS, band_correlation
from .errors import ConfigurationError

_SINC_SERIES_CUTOFF = 1e-4
# magnitudes |f| at most this many ulps of the largest |f| apart share one
# quadrature row: np.linspace makes a grid symmetric only up to rounding
_MERGE_ULPS = 8
# complex values per lag x grid block of the tabulated transform; a grid
# longer than this is transformed one lag at a time
_ACORR_BLOCK = 2**20


def sinc(x):
    """sin(x)/x with sinc(0) = 1, using a series branch for small |x|."""
    arr = np.asarray(x, dtype=float)
    small = np.abs(arr) < _SINC_SERIES_CUTOFF
    safe = np.where(small, 1.0, arr)
    series = 1.0 - arr * arr / 6.0 * (1.0 - arr * arr / 20.0)
    out = np.where(small, series, np.sin(safe) / safe)
    if np.ndim(x) == 0:
        return float(out)
    return out


class OpticalSpectrum:
    """Common interface of the spectrum models (see module docstring)."""

    carrier_f0: float

    def total_power(self) -> float:
        raise NotImplementedError

    def psd(self, f):
        raise NotImplementedError

    def autocorrelation(self, lag):
        raise NotImplementedError

    def intensity_autoconvolution(self, f):
        """S0(f), the cross spectrum at zero shift (real for a real PSD)."""
        return self.cross_spectrum(f, 0.0).real

    def cross_spectrum(self, f, shift):
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def with_unit_scale(self) -> "OpticalSpectrum":
        """Copy rescaled to a canonical PSD level (for scale-free ratios)."""
        raise NotImplementedError


@dataclass(frozen=True)
class RectangularSpectrum(OpticalSpectrum):
    """Flat double-sided PSD of level ``n0`` over ``[-b/2, b/2]``."""

    n0: float  # PSD magnitude [W/Hz]
    b: float  # full optical bandwidth [Hz]
    carrier_f0: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.n0) and self.n0 > 0):
            raise ConfigurationError("rectangular spectrum requires n0 > 0")
        if not (np.isfinite(self.b) and self.b > 0):
            raise ConfigurationError("rectangular spectrum requires b > 0")

    def total_power(self) -> float:
        return self.n0 * self.b

    def psd(self, f):
        f = np.asarray(f, dtype=float)
        return (np.abs(f) <= self.b / 2.0) * self.n0

    def autocorrelation(self, lag):
        lag = np.asarray(lag, dtype=float)
        out = np.asarray(self.n0 * self.b * sinc(np.pi * self.b * lag), dtype=complex)
        return out if lag.ndim else complex(out)

    def cross_spectrum(self, f, shift):
        f, shift = np.asarray(f, dtype=float), _finite(shift)
        width = np.clip(self.b - np.abs(f), 0.0, None)
        # off the band (an infinite f too) the width is 0 and the phase 1; a NaN f stays NaN
        phase = np.exp(1j * np.pi * np.where(width == 0, 0.0, f) * shift)
        out = self.n0**2 * width * sinc(np.pi * width * shift) * phase
        return out if out.ndim else complex(out)

    def support(self) -> tuple[float, float]:
        return (-self.b / 2.0, self.b / 2.0)

    def with_unit_scale(self) -> "RectangularSpectrum":
        return RectangularSpectrum(n0=1.0, b=self.b, carrier_f0=self.carrier_f0)


@dataclass(frozen=True)
class TabulatedSpectrum(OpticalSpectrum):
    """PSD samples on a uniform grid, linearly interpolated, zero-extended.

    The stored model is the hat-basis expansion G(v) = sum_k v_k h((v -
    grid_k) / step) of the samples, h the unit triangle, including the
    half-triangle roll-offs one grid step beyond each end.  Both transforms
    are exact for it: the autocorrelation is step sinc^2(pi step u) times
    the samples' Fourier series, and the cross spectrum a sum over sample
    lags m of an FFT correlation of the samples times the phase-weighted
    overlap of two hats f / step - m steps apart (see :meth:`cross_spectrum`).
    """

    grid: np.ndarray  # uniformly spaced baseband frequencies [Hz]
    values: np.ndarray  # nonnegative PSD samples [W/Hz]
    carrier_f0: float = 0.0

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 64:
            raise ConfigurationError("tabulated grid needs >= 64 points")
        if values.shape != grid.shape:
            raise ConfigurationError("grid and values must have equal length")
        steps = np.diff(grid)
        if np.any(steps <= 0):
            raise ConfigurationError("grid must be strictly increasing")
        step = steps[0]
        if not np.allclose(steps, step, rtol=1e-9, atol=0.0):
            raise ConfigurationError("grid must be uniformly spaced")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ConfigurationError("PSD samples must be finite and >= 0")
        if values.sum() * step <= 0:
            raise ConfigurationError("total power must be positive")
        grid = grid.copy()
        values = values.copy()
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def step(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def total_power(self) -> float:
        # hat expansion integrates to step * sum(values)
        return float(self.values.sum() * self.step)

    @cached_property
    def _extended(self) -> tuple[np.ndarray, np.ndarray]:
        """The grid and values with one zero sample past each end."""
        lo, hi = self.support()
        return np.concatenate(([lo], self.grid, [hi])), np.concatenate(([0.0], self.values, [0.0]))

    def psd(self, f):
        return np.interp(np.asarray(f, dtype=float), *self._extended, left=0.0, right=0.0)

    def autocorrelation(self, lag):
        scalar = np.ndim(lag) == 0
        lag = np.atleast_1d(np.asarray(lag, dtype=float))
        step = self.step
        flat = lag.ravel()
        series = np.empty(flat.shape, dtype=complex)
        rows = max(1, _ACORR_BLOCK // self.grid.size)
        for start in range(0, flat.size, rows):
            block = flat[start : start + rows, None]
            series[start : start + rows] = np.exp(2j * np.pi * block * self.grid) @ self.values
        out = step * sinc(np.pi * step * lag) ** 2 * series.reshape(lag.shape)
        return complex(out[0]) if scalar else out

    @cached_property
    def _reversed_transform(self) -> np.ndarray:
        """FFT of the reversed samples, zero-padded past the 2N - 1 lags to a power of two."""
        return np.fft.fft(self.values[::-1], 1 << (2 * self.values.size - 1).bit_length())

    def cross_spectrum(self, f, shift):
        # With a = step * s, CC(f, s) = step sum_m c_m(s) K(f / step - m, a):
        # c_m(s) = sum_k v_k v_{k-m} exp(j 2 pi s grid_k), one FFT correlation
        # per distinct shift (a batch of operating points has one delay
        # each), and K (see _hat_overlaps) vanishes for |t| >= 2, so each f
        # takes the four m from floor(f / step) - 1 to floor(f / step) + 2.
        f, shift = np.broadcast_arrays(f, _finite(shift))
        out = np.empty(f.shape, dtype=complex)
        step, lags, reversed_ = self.step, 2 * self.values.size - 1, self._reversed_transform
        for value in np.unique(shift):
            at = shift == value
            tilted = np.fft.fft(self.values * np.exp(2j * np.pi * value * self.grid), reversed_.size)
            coeffs = np.fft.ifft(tilted * reversed_)
            coeffs[lags:] = 0.0  # the padding, read for every |m| > N - 1
            x = f[at] / step
            base = np.floor(x)
            rows = coeffs[np.clip(base[:, None] + np.arange(-1, 3) + lags // 2, -1, lags).astype(int)]
            out[at] = step * np.sum(rows * _hat_overlaps(x - base, step * value), axis=-1)
        return out if out.ndim else complex(out)

    def support(self) -> tuple[float, float]:
        step = self.step
        return (float(self.grid[0]) - step, float(self.grid[-1]) + step)

    def with_unit_scale(self) -> "TabulatedSpectrum":
        scale = float(self.values.max())
        return TabulatedSpectrum(grid=self.grid, values=self.values / scale, carrier_f0=self.carrier_f0)


def _finite(shift):
    """A cross-spectrum shift as an array; a NaN or infinite one is a :class:`ConfigurationError`."""
    shift = np.asarray(shift, dtype=float)
    if not np.all(np.isfinite(shift)):
        raise ConfigurationError(f"cross-spectrum shift must be finite, got {shift[~np.isfinite(shift)][0]}")
    return shift


def _hat_overlaps(frac, a):
    """K(frac - j, a) for j = -1, 0, 1, 2 along a last axis, for 0 <= frac <= 1.

    K(t, a) = int h(y) h(y - t) exp(j 2 pi a y) dy, h(y) = max(0, 1 - |y|).
    On h's support [-1, 1] each of the four integrands is a quadratic times
    the phasor between consecutive points of {-1, frac - 1, 0, frac, 1},
    the kinks of h and of h(y - t) alike, so one 16-point Gauss-Legendre
    rule on each of the four gaps, split into panels of under 1.5 phasor
    cycles, serves all four and is exact up to rounding.
    """
    kinks = np.stack(np.broadcast_arrays(-1.0, frac - 1.0, 0.0, frac, 1.0), axis=-1)
    panels = int(abs(a) / 1.5) + 1
    half = np.diff(kinks)[:, None, :, None] / (2 * panels)
    t = frac[:, None, None, None] - np.arange(-1, 3)[:, None, None]
    out = 0.0
    for p in range(panels):
        y = kinks[:, None, :-1, None] + half * (2 * p + 1 + _NODES)
        hats = np.maximum(1.0 - np.abs(y), 0.0) * np.maximum(1.0 - np.abs(y - t), 0.0)
        out += np.sum(half * _WEIGHTS * hats * np.exp(2j * np.pi * a * y), axis=(-2, -1))
    return out


def spectral_correlation(spectrum: OpticalSpectrum, f, shift: float) -> np.ndarray:
    """``int G(v) G(v - f) exp(+-j 2 pi v shift) dv`` for each f, by quadrature.

    Row 0 holds the ``+shift`` correlation and row 1 the ``-shift`` one,
    both from the same node values (see :func:`ibosmpf._quad.band_correlation`).
    Needs only the model's PSD and support, so it serves any model; the rows
    are arrays of f's shape, at least one-dimensional.

    Each |f| is integrated once: sorted magnitudes that step by at most
    ``_MERGE_ULPS`` ulps of the largest share one row, taken at its smallest,
    so both halves of an ``np.linspace`` grid (symmetric about 0 only up to
    rounding) cost one row per pair.  Substituting v -> v + h gives the
    exact mirror identity CC(-h, s) = exp(-j 2 pi h s) CC(h, s), so a
    negative f takes its row's value times its own exact phase, exp(+-j 2 pi
    f shift) on the +-shift row.  The widest row, and with it the panel
    count, is the one at the smallest |f| either way.
    """
    f = np.atleast_1d(np.asarray(f, dtype=float))
    mag = np.abs(f).ravel()
    order = np.argsort(mag)
    # a NaN step or tolerance fails the test, so a NaN |f| keeps a row of its own
    new_row = ~(np.diff(mag[order], prepend=-np.inf) <= _MERGE_ULPS * np.spacing(mag.max(initial=0.0)))
    magnitudes, inverse = mag[order][new_row], np.empty(mag.size, dtype=int)
    inverse[order] = np.cumsum(new_row) - 1
    sup = spectrum.support()

    def psd(v, _phasor):
        return spectrum.psd(v)

    half = band_correlation(psd, psd, sup, sup, magnitudes, cycle_rate=abs(shift), lag=shift)
    out = np.broadcast_to(half, (2,) + magnitudes.shape)[:, inverse].reshape((2,) + f.shape)
    negative = f < 0
    out[0, negative] *= np.exp(2j * np.pi * f[negative] * shift)
    out[1, negative] *= np.exp(-2j * np.pi * f[negative] * shift)
    return out


def tabulate(spectrum: OpticalSpectrum, n_points: int) -> TabulatedSpectrum:
    """Sample any spectrum model onto a uniform grid over its support."""
    lo, hi = spectrum.support()
    grid = np.linspace(lo, hi, n_points)
    return TabulatedSpectrum(
        grid=grid,
        values=np.asarray(spectrum.psd(grid), dtype=float),
        carrier_f0=spectrum.carrier_f0,
    )
