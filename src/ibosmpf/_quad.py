"""Composite Gauss-Legendre quadrature for band-limited spectral integrals.

The correlation integrals of the general PSD evaluator and the
frequency-domain cross-check have smooth integrands on the overlap of two
spectral supports.  Each caller passes its own integrand's oscillation
rate (cycles per hertz), and each panel spans at most ~1.5 of its cycles,
which keeps a 16-point rule near machine accuracy.  The shifts are
evaluated in row blocks of about ``_BLOCK`` nodes, so the temporaries stay
cache-sized whatever the shift count.

An integrand is called as ``w(v, phasor)``, ``phasor(rate)`` being exp(j 2
pi rate v) at its nodes.  Node q of panel p in row i sits at v = lo_i +
width_i (c_p + h x_q), so the phasor is a per-panel factor times a per-node
one.  Every ``_RESEED``-th panel factor is the exponential of its centre,
and the next ones are it times powers of the row's step exp(j theta_i),
theta_i = 2 pi rate width_i / P (the trigonometric recurrence of Numerical
Recipes, section 5.4).  The node factors are exp(j theta_i x_q / 2) on the
eight positive Gauss nodes and their conjugates, the rule being exactly
antisymmetric: P / ``_RESEED`` + 9 exponentials per row instead of P + 16.
At 1.5 cycles per panel |theta_i| <= 3 pi rounds by at most ~3.4e-15 rad,
so the ``_RESEED`` - 1 steps past a seed drift by under 6e-14 rad (2.9e-14
measured at 500 to 1,000 panels), while the exponential of a centre itself
rounds by up to 1.3e-12 rad at the ~3,000 rad a 640-panel row spans.  The
second integrand's phasor is the first one's times exp(-j 2 pi rate g), and
a negative rate takes the conjugate.  An integrand may return a leading
axis of stacked integrands sharing a node set; each is summed on its own.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


# 16-point Gauss-Legendre rule on [-1, 1], mapped onto every panel; numpy
# symmetrizes it, so _NODES[15 - q] == -_NODES[q] exactly
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
# quadrature nodes (shifts x nodes per shift) evaluated per row block
_BLOCK = 2**14
# panels per exact exponential of a panel centre; those between are powers of the row's step
_RESEED = 16


def _phasors(rate, lo, width, centers):
    """exp(j 2 pi rate v) as (rows x panels, rows x Gauss nodes) factors."""
    angle = 2.0 * np.pi * rate
    seeds = np.exp(1j * angle * (lo[:, None] + width[:, None] * centers[::_RESEED]))
    powers = np.exp(1j * angle * width / centers.size)[:, None] ** np.arange(_RESEED)
    panel = seeds[:, :, None] * powers[:, None, :]
    upper = np.exp(1j * angle * (centers[0] * width)[:, None] * _NODES[_NODES.size // 2 :])
    node = np.concatenate((upper[:, ::-1].conj(), upper), axis=1)
    return panel.reshape(lo.size, seeds.shape[1] * _RESEED)[:, : centers.size], node


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
    centers = (2.0 * np.arange(n_panels) + 1.0) * half
    unit_nodes = (centers[:, None] + half * _NODES).ravel()

    # zero-overlap rows stay 0 and are never evaluated
    live = np.flatnonzero(width)
    if lag:
        # row i: half width_i sum_p A_ip sum_q values_ipq B_iq, the Gauss weights in B
        panel_all, node_all = _phasors(abs(lag), lo[live], width[live], centers)
        node_all *= _WEIGHTS
        re_im_all = np.stack((node_all.real, node_all.imag), axis=-1)
    out = None
    rows = max(1, _BLOCK // unit_nodes.size)
    for start in range(0, max(live.size, 1), rows):  # an empty block still fixes the shape
        idx = live[start : start + rows]
        nodes = lo[idx, None] + width[idx, None] * unit_nodes
        made = {}  # |rate| -> the block's phasor, built once for both integrands

        def phasor1(rate):
            if abs(rate) not in made:
                panel, node = _phasors(abs(rate), lo[idx], width[idx], centers)
                made[abs(rate)] = (panel[:, :, None] * node[:, None, :]).reshape(nodes.shape)
            return made[abs(rate)] if rate >= 0 else made[abs(rate)].conj()

        def phasor2(rate):
            return phasor1(rate) * np.exp(-2j * np.pi * rate * shifts[idx])[:, None]

        values = w1(nodes, phasor1) * w2(nodes - shifts[idx, None], phasor2)
        if out is None:
            out = np.zeros(values.shape[:-2] + ((2,) if lag else ()) + shifts.shape, dtype=complex)
        values = values.reshape(values.shape[:-1] + (n_panels, _NODES.size))
        if not lag:
            out[..., idx] = half * width[idx] * (values @ _WEIGHTS).sum(axis=-1)
            continue
        panel, node, re_im = (a[start : start + rows] for a in (panel_all, node_all, re_im_all))
        if np.iscomplexobj(values):
            plus = np.einsum("ip,...ip->...i", panel, (values @ node[:, :, None])[..., 0])
            minus = np.einsum("ip,...ip->...i", panel.conj(), (values @ node.conj()[:, :, None])[..., 0])
        else:  # the (Re, Im) sums viewed as one complex sum per panel
            plus = np.einsum("ip,...ip->...i", panel, (values @ re_im).view(complex)[..., 0])
            minus = plus.conj()
        out[..., idx] = half * width[idx] * np.stack((plus, minus) if lag > 0 else (minus, plus), axis=-2)
    return out
