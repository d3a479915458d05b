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
