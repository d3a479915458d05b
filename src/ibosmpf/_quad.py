"""Composite Gauss-Legendre quadrature for band-limited spectral integrals.

The correlation integrals used by the general PSD evaluator and the
frequency-domain cross-check have smooth integrands on the compact overlap
of two spectral supports, oscillating no faster than a known cycle rate
(seconds, i.e. cycles per hertz).  Panels are sized so that each spans at
most ~1.5 oscillation cycles, which keeps a 16-point rule near machine
accuracy.  The shifts are evaluated in row blocks of about ``_BLOCK``
nodes, so the temporaries stay cache-sized whatever the shift count.

An integrand is called as ``w(v, phasor)``, ``phasor(rate)`` being exp(j 2
pi rate v) at its nodes.  Node q of panel p in row i sits at v = lo_i +
width_i (c_p + h x_q), so the phasor is one exponential per row and panel
times one per row and Gauss node: P + 16 per row instead of 16 P, as for
the ``lag`` phases.  An integrand may return a leading axis of stacked
integrands sharing a node set; each stacked product is summed on its own.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np


# 16-point Gauss-Legendre rule on [-1, 1], mapped onto every panel
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
# quadrature nodes (shifts x nodes per shift) evaluated per row block
_BLOCK = 2**14


def _phasors(rate, lo, width, centers, half):
    """exp(j 2 pi rate v) as (rows x panels, rows x Gauss nodes) factors."""
    angle = 2.0 * np.pi * rate
    panel = np.exp(1j * angle * (lo[:, None] + width[:, None] * centers[None, :]))
    return panel, np.exp(1j * angle * (half * width)[:, None] * _NODES[None, :])


def _phasor(lo, width, centers, half, rate):
    panel, node = _phasors(rate, lo, width, centers, half)
    return (panel[:, :, None] * node[:, None, :]).reshape(lo.size, centers.size * _NODES.size)


def band_correlation(
    w1: Callable[..., np.ndarray],
    w2: Callable[..., np.ndarray],
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

    A nonzero ``lag`` adds an axis of two rows, the integrals times exp(+j
    2 pi v lag) (row 0) and exp(-j 2 pi v lag) (row 1), from the same node
    values.  Complex values are summed with each row's own phasors, so a
    complex integrand shows; real ones take one real sum against the (Re,
    Im) node phasors, and the -lag row is its conjugate.  Negating the lag
    swaps the rows exactly; ``cycle_rate`` must cover |lag|.  Each row's
    sum does not depend on the row blocking.
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

    # zero-overlap rows stay 0 and are never evaluated
    live = np.flatnonzero(width)
    if lag:
        # row i: half width_i sum_p A_ip sum_q values_ipq B_iq, the Gauss weights in B
        panel_all, node_all = _phasors(abs(lag), lo[live], width[live], centers, half)
        node_all *= _WEIGHTS
        re_im_all = np.stack((node_all.real, node_all.imag), axis=-1)
    out = None
    rows = max(1, _BLOCK // unit_nodes.size)
    for start in range(0, max(live.size, 1), rows):  # an empty block still fixes the shape
        idx = live[start : start + rows]
        nodes = lo[idx, None] + width[idx, None] * unit_nodes[None, :]
        phasor1 = partial(_phasor, lo[idx], width[idx], centers, half)
        phasor2 = partial(_phasor, lo[idx] - shifts[idx], width[idx], centers, half)
        values = w1(nodes, phasor1) * w2(nodes - shifts[idx, None], phasor2)
        if out is None:
            out = np.zeros(values.shape[:-2] + ((2,) if lag else ()) + shifts.shape, dtype=complex)
        if not lag:
            out[..., idx] = np.einsum("...ij,ij->...i", values, width[idx, None] * unit_weights[None, :])
            continue
        panel, node, re_im = (a[start : start + rows] for a in (panel_all, node_all, re_im_all))
        values = values.reshape(values.shape[:-1] + (n_panels, _NODES.size))
        if np.iscomplexobj(values):
            plus = np.einsum("ip,...ip->...i", panel, (values @ node[:, :, None])[..., 0])
            minus = np.einsum("ip,...ip->...i", panel.conj(), (values @ node.conj()[:, :, None])[..., 0])
        else:  # the (Re, Im) sums viewed as one complex sum per panel
            plus = np.einsum("ip,...ip->...i", panel, (values @ re_im).view(complex)[..., 0])
            minus = plus.conj()
        out[..., idx] = half * width[idx] * np.stack((plus, minus) if lag > 0 else (minus, plus), axis=-2)
    return out
