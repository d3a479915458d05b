"""Composite Gauss-Legendre quadrature for band-limited spectral integrals.

The correlation integrals used by the general PSD evaluator and the
frequency-domain cross-check have smooth integrands on the compact overlap
of two spectral supports, oscillating no faster than a known cycle rate
(seconds, i.e. cycles per hertz).  Panels are sized so that each spans at
most ~1.5 oscillation cycles, which keeps a 16-point rule near machine
accuracy.  The shifts are evaluated in row blocks of about ``_BLOCK``
nodes, so the temporaries stay cache-sized whatever the shift count.

A lagged integral carries the phase exp(+-j 2 pi v lag).  A node of row i
sits at v = lo_i + width_i (c_p + h x_q), with c_p the centre of panel p,
h the panel half-width on [0, 1] and x_q a Gauss node, so the phase
factors into one phasor per row and panel, exp(j 2 pi lag (lo_i + width_i
c_p)), times one per row and Gauss node, exp(j 2 pi lag width_i h x_q):
P + 16 exponentials per row instead of 16 P.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


# 16-point Gauss-Legendre rule on [-1, 1], mapped onto every panel
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
# quadrature nodes (shifts x nodes per shift) evaluated per row block
_BLOCK = 2**14


def band_correlation(
    w1: Callable[[np.ndarray], np.ndarray],
    w2: Callable[[np.ndarray], np.ndarray],
    support1: tuple[float, float],
    support2: tuple[float, float],
    shifts: np.ndarray,
    cycle_rate: float,
    lag: float = 0.0,
) -> np.ndarray:
    """Evaluate ``int w1(v) * w2(v - g) dv`` for every shift g.

    ``w1``/``w2`` must vanish outside their supports; only the overlap is
    integrated.  ``cycle_rate`` bounds the oscillation of the combined
    integrand in cycles per hertz; four panels are added to that count.

    A nonzero ``lag`` returns two rows, the integrals times exp(+j 2 pi v
    lag) (row 0) and exp(-j 2 pi v lag) (row 1), from the same node values,
    each with its own phasors: the -lag row is never the conjugate of the
    +lag one, so a complex integrand shows.  They are computed for |lag|,
    so negating the lag swaps them exactly.  ``cycle_rate`` must cover
    |lag|.  Each row's sum does not depend on the row blocking.
    """
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    lo1, hi1 = support1
    lo2, hi2 = support2
    lo = np.maximum(lo1, lo2 + shifts)
    hi = np.minimum(hi1, hi2 + shifts)
    width = np.clip(hi - lo, 0.0, None)

    n_panels = int(np.ceil(float(width.max(initial=0.0)) * abs(cycle_rate) / 1.5)) + 4
    half = 0.5 / n_panels
    centers = np.linspace(0.0, 1.0, n_panels + 1)[:-1] + half
    unit_nodes = (centers[:, None] + half * _NODES[None, :]).ravel()
    unit_weights = np.tile(half * _WEIGHTS, n_panels)
    rate = 2.0 * np.pi * abs(lag)

    # zero-overlap rows stay 0 and are never evaluated
    out = np.zeros((2,) + shifts.shape if lag else shifts.shape, dtype=complex)
    live = np.flatnonzero(width)
    rows = max(1, _BLOCK // unit_nodes.size)
    for start in range(0, live.size, rows):
        idx = live[start : start + rows]
        nodes = lo[idx, None] + width[idx, None] * unit_nodes[None, :]
        values = w1(nodes) * w2(nodes - shifts[idx, None])
        if not lag:
            out[idx] = np.einsum("ij,ij->i", values, width[idx, None] * unit_weights[None, :])
            continue
        # row i: half width_i sum_p A_ip sum_q values_ipq B_iq, the Gauss weights in B
        scale = half * width[idx]
        values = values.reshape(idx.size, n_panels, _NODES.size).astype(complex, copy=False)
        panel = np.exp(1j * rate * (lo[idx, None] + width[idx, None] * centers[None, :]))
        node = np.exp(1j * rate * scale[:, None] * _NODES[None, :]) * _WEIGHTS
        plus = np.einsum("ip,ip->i", panel, (values @ node[:, :, None])[..., 0])
        minus = np.einsum("ip,ip->i", panel.conj(), (values @ node.conj()[:, :, None])[..., 0])
        out[:, idx] = scale * (np.stack((plus, minus)) if lag > 0 else np.stack((minus, plus)))
    return out
