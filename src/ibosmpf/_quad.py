"""Composite Gauss-Legendre quadrature for band-limited spectral integrals.

The correlation integrals used by the general PSD evaluator and the
frequency-domain cross-check have smooth integrands on the compact overlap
of two spectral supports, oscillating no faster than a known cycle rate
(seconds, i.e. cycles per hertz).  Panels are sized so that each spans at
most ~1.5 oscillation cycles, which keeps a 16-point rule near machine
accuracy.  The shifts are evaluated in row blocks of about ``_BLOCK``
nodes, so the temporaries stay cache-sized whatever the shift count, and
several integrands that share one ``w2`` (a +-lag pair) are summed from
the same node values.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


# 16-point Gauss-Legendre rule on [-1, 1], mapped onto every panel
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
# quadrature nodes (shifts x nodes per shift) evaluated per row block
_BLOCK = 2**14


def _unit_panel_rule(n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite rule on [0, 1]: node positions and weights."""
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    half = 0.5 / n_panels
    centers = edges[:-1] + half
    nodes = (centers[:, None] + half * _NODES[None, :]).ravel()
    weights = np.broadcast_to(half * _WEIGHTS[None, :], (n_panels, _NODES.size)).ravel()
    return nodes, weights.copy()


def band_correlation(
    w1: Callable[[np.ndarray], np.ndarray],
    w2: Callable[[np.ndarray], np.ndarray],
    support1: tuple[float, float],
    support2: tuple[float, float],
    shifts: np.ndarray,
    cycle_rate: float,
) -> np.ndarray:
    """Evaluate ``int w1(v) * w2(v - g) dv`` for every shift g.

    ``w1``/``w2`` must vanish outside their supports; only the overlap is
    integrated.  ``cycle_rate`` bounds the oscillation of the combined
    integrand in cycles per hertz; four panels are added to that count.
    ``w1`` may stack several integrands on a leading axis; each is summed
    against the same ``w2`` values and weights, and the result carries the
    same leading axis.  The shifts are evaluated in row blocks of about
    ``_BLOCK`` nodes; each row's sum does not depend on the blocking.
    """
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    lo1, hi1 = support1
    lo2, hi2 = support2
    lo = np.maximum(lo1, lo2 + shifts)
    hi = np.minimum(hi1, hi2 + shifts)
    width = np.clip(hi - lo, 0.0, None)

    n_panels = int(np.ceil(float(width.max(initial=0.0)) * abs(cycle_rate) / 1.5)) + 4
    unit_nodes, unit_weights = _unit_panel_rule(n_panels)

    # zero-overlap rows stay 0 and are never evaluated; with none left, one
    # empty block still fixes the shape of the leading axis
    live = np.flatnonzero(width)
    rows = max(1, _BLOCK // unit_nodes.size)
    out = None
    for start in range(0, max(live.size, 1), rows):
        idx = live[start : start + rows]
        nodes = lo[idx, None] + width[idx, None] * unit_nodes[None, :]
        weights = width[idx, None] * unit_weights[None, :]
        values = w1(nodes) * w2(nodes - shifts[idx, None])
        part = np.einsum("...ij,ij->...i", np.asarray(values, dtype=complex), weights)
        if out is None:
            out = np.zeros(part.shape[:-1] + shifts.shape, dtype=complex)
        out[..., idx] = part
    return out
