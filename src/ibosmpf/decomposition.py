"""Intensity-spectrum decomposition into discrete lines and a continuum.

The detected intensity PSD is a sum of delta lines (deterministic RF tones)
and a continuous noise floor.  Both analytic evaluators and the Monte-Carlo
estimator report this container; deltas are never represented on a sampled
grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError


@dataclass
class SpectralDecomposition:
    frequencies: np.ndarray  # continuum sample frequencies [Hz]
    continuum: np.ndarray  # noise PSD [intensity^2 / Hz]
    line_frequencies: np.ndarray  # discrete line positions [Hz]
    line_powers: np.ndarray  # integrated line powers [intensity^2]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        self.continuum = np.asarray(self.continuum, dtype=float)
        order = np.argsort(np.asarray(self.line_frequencies, dtype=float))
        self.line_frequencies = np.asarray(self.line_frequencies, dtype=float)[order]
        self.line_powers = np.asarray(self.line_powers, dtype=float)[order]

    def line_power_at(self, f: float) -> float:
        """Total power of lines within 1 Hz + 1e-9 relative of ``f`` (0 if none)."""
        sel = np.isclose(self.line_frequencies, f, rtol=1e-9, atol=1.0)
        return float(self.line_powers[sel].sum())

    def clamp_continuum(self) -> None:
        """Clamp tiny negative continuum values to 0, recording the excursion."""
        min_value = float(self.continuum.min(initial=0.0))
        clipped = int(np.count_nonzero(self.continuum < 0.0))
        self.continuum = np.clip(self.continuum, 0.0, None)
        self.metadata["continuum_min_before_clamp"] = min_value
        self.metadata["continuum_clamped_points"] = clipped


def real_line_powers(weights: np.ndarray, line_freqs: np.ndarray) -> np.ndarray:
    """Real parts of complex line weights, clamped at zero.

    Each weight is a sum of conjugate term pairs, so an imaginary part
    above 1e-9 of the real part means a faulty source or modulation model;
    it raises :class:`DomainError` with the worst residual.
    """
    scale = np.maximum(np.abs(weights.real), 1e-300)
    if np.any(np.abs(weights.imag) > 1e-9 * scale):
        residual = np.abs(weights.imag) / scale
        worst = np.unravel_index(np.argmax(residual), weights.shape)
        raise DomainError(
            f"line weight at {line_freqs[worst]:.6g} Hz not real: "
            f"{complex(weights[worst]):.6g}, |imag|/|real| = {residual[worst]:.3g}"
        )
    return np.maximum(weights.real, 0.0)


class _LineLags:
    """Source autocorrelation at the line lags u(k, s) = 2 pi phi (k f_m) + s d.

    ``link`` gives phi, the delay d and the spectrum; each (order k, shift s
    in units of d) goes through the autocorrelation once per instance.
    u(-k, -s) is the exact negation of u(k, s), so :meth:`check_hermitian`
    compares every evaluated value with its mirror, evaluating only the
    mirrors that were not already needed.
    """

    def __init__(self, link, f_m):
        self._link = link
        self._f_m = f_m
        self._values: dict = {}

    def lag(self, k: int, s: int):
        return 2.0 * np.pi * self._link.phi * (k * self._f_m) + s * self._link.delay

    def __call__(self, k: int, s: int):
        if (k, s) not in self._values:
            self._values[(k, s)] = self._link.spectrum.autocorrelation(self.lag(k, s))
        return self._values[(k, s)]

    def check_hermitian(self) -> None:
        """Raise :class:`DomainError` unless R0(-u) = R0(u)* to 1e-9 of |R0| at every evaluated lag.

        The line weights are sums of conjugate term pairs, so they stay real
        for a non-Hermitian R0; this check sees one.
        """
        checked = set()
        for k, s in list(self._values):
            if (k, s) in checked:
                continue
            checked.add((-k, -s))  # the same comparison, conjugated
            r0, mirror = np.asarray(self._values[(k, s)]), np.asarray(self(-k, -s))
            mismatch = np.abs(mirror - np.conj(r0))
            scale = np.maximum(np.abs(r0), np.abs(mirror))
            if np.any(mismatch > 1e-9 * scale):
                residual = mismatch / np.maximum(scale, 1e-300)
                worst = np.unravel_index(np.argmax(residual), residual.shape)
                lag = np.broadcast_to(self.lag(k, s), residual.shape)[worst]
                raise DomainError(
                    f"source autocorrelation not Hermitian at lag {lag:.6g} s: "
                    f"R0(-u) = {complex(mirror[worst]):.6g}, R0(u)* = {complex(np.conj(r0[worst])):.6g}, "
                    f"mismatch/|R0| = {residual[worst]:.3g}"
                )
