"""Row-blocked quadrature and the +-lag pair.

``band_correlation`` evaluates its shifts in row blocks of about ``_BLOCK``
nodes; every row's sum must equal the one-block evaluation exactly.  The
engine fills its +lag and -lag correlation keys from one call of
``spectral_correlation``, whose phases are products of per-panel and
per-node phasors.  Negating the lag must swap the two rows exactly, and
each row must agree with a quadrature that evaluates exp(j 2 pi v lag) at
every node, and on the rectangular source with the closed-form cross
spectrum, to 1e-12 of the row peak.  ``spectral_correlation`` integrates
each |f| once, magnitudes equal up to rounding sharing a row, and scales a
negative f's rows by the mirror identity; every row must agree with the
quadrature at its own shift, on real and complex sources alike.

Integrands are called as ``w(v, phasor)``.  ``phasor(rate)`` must match
exp(j 2 pi rate v) evaluated at every node; a stacked integrand's rows must
equal the pairings integrated one by one; a real integrand must give the
rows of the same integrand passed as complex.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from ibosmpf import _quad, reference_link
from ibosmpf import engine as engine_module
from ibosmpf import spectrum as spectrum_module
from ibosmpf.engine import general_intensity_psd
from ibosmpf.freq_domain import _bands
from ibosmpf.modulation import polarization_modulator_scheme
from ibosmpf.spectrum import OpticalSpectrum, TabulatedSpectrum, spectral_correlation, tabulate

LINK = reference_link()
SPECTRA = {
    "rectangular": LINK.spectrum,
    "tabulated": tabulate(LINK.spectrum, 512),
}
# past the 400 GHz correlation support at both ends: zero-overlap rows; a
# prime count is no multiple of the rows per block
SHIFTS = np.linspace(-450e9, 450e9, 997)


def _row(w, i):
    return lambda v, phasor: w(v, phasor)[i]


def _freq_domain_cases():
    """The six pairings one by one, then the two stacked quadratures."""
    f_m = LINK.scheme.f_m
    band, dispersion, v_m, sup1, sup3 = _bands(LINK, f_m)
    rate = 2.0 * LINK.delay  # the noise quadratures' rate
    x1, x3 = band(0.0), band(f_m)
    x1_y2, x1_y2c = band(0.0, dispersion, -v_m), band(0.0, dispersion.conj(), v_m)
    x3_y5, x3_y5c = band(f_m, dispersion, v_m), band(f_m, dispersion.conj(), -v_m)
    y2, y2c, y5, y5c = (_row(w, 1) for w in (x1_y2, x1_y2c, x3_y5, x3_y5c))
    return {
        "x1,x1": (x1, x1, sup1, sup1, rate),
        "y2,y2*": (y2, y2c, sup1, sup1, rate),
        "x3,x1": (x3, x1, sup3, sup1, rate),
        "x1,x3": (x1, x3, sup1, sup3, rate),
        "y5,y5*": (y5, y5c, sup3, sup3, rate),
        "x3,x3": (x3, x3, sup3, sup3, rate),
        "[x1,y2],[x1,y2*]": (x1_y2, x1_y2c, sup1, sup1, rate),
        "[x3,y5],[x3,y5*]": (x3_y5, x3_y5c, sup3, sup3, rate),
    }


def _rows_per_block(rate, width):
    """Rows per block for the panel count ``band_correlation`` picks."""
    n_panels = int(np.ceil(width * rate / 1.5)) + 4
    return _quad._BLOCK // (16 * n_panels)


@pytest.mark.parametrize("case", _freq_domain_cases().items(), ids=lambda c: c[0])
def test_blocked_equals_one_block_freq_domain(monkeypatch, case):
    _, (w1, w2, sup1, sup2, rate) = case
    rows = _rows_per_block(rate, min(sup1[1] - sup1[0], sup2[1] - sup2[0]))
    assert 1 < rows and SHIFTS.size > 2 * rows
    blocked = _quad.band_correlation(w1, w2, sup1, sup2, SHIFTS, rate)
    monkeypatch.setattr(_quad, "_BLOCK", 2**40)
    whole = _quad.band_correlation(w1, w2, sup1, sup2, SHIFTS, rate)
    assert np.array_equal(blocked, whole)
    lo = np.maximum(sup1[0], sup2[0] + SHIFTS)
    hi = np.minimum(sup1[1], sup2[1] + SHIFTS)
    empty = hi <= lo
    assert empty.any() and not empty.all()
    assert np.all(blocked[..., empty] == 0.0)


@pytest.mark.parametrize(
    "stacked, x_row, y_row",
    [("[x1,y2],[x1,y2*]", "x1,x1", "y2,y2*"), ("[x3,y5],[x3,y5*]", "x3,x3", "y5,y5*")],
)
def test_stacked_rows_equal_their_own_quadratures(stacked, x_row, y_row):
    cases = _freq_domain_cases()
    w1, w2, sup1, sup2, rate = cases[stacked]
    x, y = _quad.band_correlation(w1, w2, sup1, sup2, SHIFTS, rate)
    w1, w2, sup1, sup2, rate = cases[y_row]
    assert np.array_equal(y, _quad.band_correlation(w1, w2, sup1, sup2, SHIFTS, rate))
    # the real x pairing, stacked with a complex one, is summed as complex: 2.5e-15 measured
    w1, w2, sup1, sup2, rate = cases[x_row]
    assert _peak_error(x, _quad.band_correlation(w1, w2, sup1, sup2, SHIFTS, rate)) <= 1e-14


@pytest.mark.parametrize("name", SPECTRA)
@pytest.mark.parametrize("lag", [0.0, 1, 2])
def test_blocked_equals_one_block_pair(monkeypatch, name, lag):
    spec = SPECTRA[name]
    shift = lag * LINK.delay
    lo, hi = spec.support()
    rows = _rows_per_block(shift, hi - lo)
    assert 1 < rows and SHIFTS.size > 2 * rows
    blocked = spectral_correlation(spec, SHIFTS, shift)
    monkeypatch.setattr(_quad, "_BLOCK", 2**40)
    whole = spectral_correlation(spec, SHIFTS, shift)
    assert blocked.shape == (2, SHIFTS.size)
    assert np.array_equal(blocked, whole)
    assert np.all(blocked[:, np.abs(SHIFTS) >= hi - lo] == 0.0)


def test_no_overlap_keeps_the_leading_axis():
    spec = SPECTRA["rectangular"]
    far = np.array([-1e12, 1e12, 2e12])
    assert np.array_equal(spectral_correlation(spec, far, LINK.delay), np.zeros((2, 3)))
    sup = spec.support()

    def psd(v, _):
        return spec.psd(v)

    assert np.array_equal(_quad.band_correlation(psd, psd, sup, sup, far, 0.0), np.zeros(3))
    stacked = _freq_domain_cases()["[x1,y2],[x1,y2*]"]
    assert np.array_equal(_quad.band_correlation(*stacked[:4], far, stacked[4]), np.zeros((2, 3)))


def _peak_error(values, reference):
    return float(np.max(np.abs(values - reference)) / np.max(np.abs(reference)))


@pytest.mark.parametrize("name", SPECTRA)
@pytest.mark.parametrize("lag", [1, 2, -1])
def test_pair_equals_separate_evaluations(name, lag):
    spec = SPECTRA[name]
    sup = spec.support()
    shift = lag * LINK.delay

    def direct(shift):
        def w1(v, _):
            return spec.psd(v) * np.exp(2j * np.pi * v * shift)

        return _quad.band_correlation(w1, lambda v, _: spec.psd(v), sup, sup, SHIFTS, abs(shift))

    pair = spectral_correlation(spec, SHIFTS, shift)
    mirror = spectral_correlation(spec, SHIFTS, -shift)
    assert np.array_equal(pair[0], mirror[1]) and np.array_equal(pair[1], mirror[0])

    for row, row_shift in zip(pair, (shift, -shift)):
        reference = direct(row_shift)
        assert _peak_error(row, reference) <= 1e-12
        if name == "rectangular":
            exact = spec.cross_spectrum(SHIFTS, row_shift)
            assert _peak_error(row, exact) <= min(1e-12, _peak_error(reference, exact))


class _OddPhaseSpectrum(OpticalSpectrum):
    """Complex PSD exp(j sin(2 pi f / 150 GHz)) on +-200 GHz: an odd phase."""

    carrier_f0 = 0.0

    def support(self):
        return (-200e9, 200e9)

    def psd(self, f):
        f = np.asarray(f, dtype=float)
        return np.where(np.abs(f) <= 200e9, np.exp(1j * np.sin(2 * np.pi * f / 150e9)), 0.0)


def _ragged_tabulated():
    grid = np.linspace(-200e9, 200e9, 4096)
    return TabulatedSpectrum(grid=grid, values=np.random.default_rng(0).uniform(0.5, 1.5, grid.size))


MIRROR_SOURCES = {
    "rectangular": lambda: LINK.spectrum,
    "ragged-tabulated": _ragged_tabulated,
    "odd-phase-complex": _OddPhaseSpectrum,
}


@pytest.mark.parametrize("name", MIRROR_SOURCES)
@pytest.mark.parametrize("lag", [0.0, 7.94e-11])
def test_mirror_rows_equal_direct_quadrature(name, lag):
    # a negative f comes from the quadrature at its row's |f| times its own
    # phase per row; the direct quadrature integrates each f at its own
    # shift.  The benchmark grid is symmetric about 0 only up to rounding:
    # its mirrored magnitudes share a row although they differ by an ulp.
    spec = MIRROR_SOURCES[name]()
    sup = spec.support()

    def psd(v, _):
        return spec.psd(v)

    for f in (np.linspace(-300e9, 300e9, 601), np.linspace(-440e9, 440e9, 1024)):
        rows = spectral_correlation(spec, f, lag)
        direct = _quad.band_correlation(psd, psd, sup, sup, f, abs(lag), lag=lag)
        if not lag:
            direct = np.stack((direct, direct))
        for row, reference in zip(rows, direct):
            assert _peak_error(row, reference) <= 1e-12
        if name == "odd-phase-complex" and lag:
            assert _peak_error(rows[1], rows[0].conj()) > 1e-3


def _engine_link(kind):
    if kind == "polarization":
        return replace(LINK, scheme=polarization_modulator_scheme(0.41, LINK.scheme.f_m))
    if kind == "tabulated":
        return LINK.with_spectrum(SPECTRA["tabulated"])
    return reference_link(scheme_kind=kind, gamma=0.41 if kind == "pm" else 0.39)


def _quadrature_rows(monkeypatch):
    """Record the shift count of every ``band_correlation`` call of spectrum.py."""
    rows = []
    original = spectrum_module.band_correlation

    def counting(w1, w2, support1, support2, shifts, *args, **kwargs):
        rows.append(np.size(shifts))
        return original(w1, w2, support1, support2, shifts, *args, **kwargs)

    monkeypatch.setattr(spectrum_module, "band_correlation", counting)
    return rows


@pytest.mark.parametrize(
    "kind, quadratures",
    [("ssb", 6), ("dsb", 9), ("pm", 7), ("polarization", 4), ("tabulated", 6)],
)
def test_engine_quadrature_counts(monkeypatch, kind, quadratures):
    # one quadrature per (|lag multiple|, |k_u|) group of continuum keys
    rows = _quadrature_rows(monkeypatch)
    general_intensity_psd(_engine_link(kind), np.linspace(-430e9, 430e9, 257))
    assert len(rows) == quadratures


@pytest.mark.parametrize("kind", ["ssb", "dsb", "pm", "polarization", "tabulated"])
def test_engine_rows_on_the_benchmark_grid(monkeypatch, kind):
    # 512 rows for the 1024 shifts at k_u = 0, 1024 for the 2048 shifts f -+
    # |k_u| f_m at |k_u| >= 1: one row per mirrored |f|.  The grid mirrors
    # 230 of its 512 magnitudes only up to an ulp (np.unique keeps 742).
    rows = _quadrature_rows(monkeypatch)
    shifts = []
    original = engine_module.spectral_correlation

    def recording(spectrum, f, shift):
        shifts.append(np.size(f))
        return original(spectrum, f, shift)

    monkeypatch.setattr(engine_module, "spectral_correlation", recording)
    general_intensity_psd(_engine_link(kind), np.linspace(-440e9, 440e9, 1024))
    assert {1024, 2048} <= set(shifts)
    assert rows == [{1024: 512, 2048: 1024}[n] for n in shifts]


def test_magnitudes_apart_by_more_than_rounding_keep_their_rows(monkeypatch):
    rows = _quadrature_rows(monkeypatch)
    spec = LINK.spectrum
    near = np.nextafter(440e9, np.inf)
    for f in ([440e9, -near], [-440e9, 440e9 + 1.0], [0.0, -0.0, 1.0]):
        spectral_correlation(spec, np.array(f), LINK.delay)
    assert rows == [1, 2, 2]
    # each f keeps its own exact mirror phase on the shared row
    f = np.array([40e9, -np.nextafter(40e9, 0.0)])
    pair = spectral_correlation(spec, f, LINK.delay)
    assert pair[0, 1] == pair[0, 0] * np.exp(2j * np.pi * f[1] * LINK.delay)
    assert pair[1, 1] == pair[1, 0] * np.exp(-2j * np.pi * f[1] * LINK.delay)


def test_empty_shifts_give_empty_rows():
    for spec in SPECTRA.values():
        for lag in (0.0, LINK.delay):
            assert spectral_correlation(spec, np.array([]), lag).shape == (2, 0)


def test_phasor_matches_a_per_node_exponential():
    # the C4 draws reach d = v_m = 2 pi phi f_c with phi <= 4e-21 s^2 and
    # f_c <= 18 GHz, on an 800 GHz band shifted by up to 18 GHz: about 190
    # cycles at the band edge.  The nodes themselves round by up to ~1.6e-4 Hz
    # there (4.5e-13 rad) and the per-node exponential by ~1.3e-13 rad, so
    # the factored phasor can only match to a few 1e-13 (5.3e-13 measured).
    rate = 2 * np.pi * 4e-21 * 18e9
    sup = (-400e9 + 18e9, 400e9 + 18e9)
    seen = []

    def w(v, phasor):
        seen.append((v, phasor(rate), phasor(-rate)))
        return np.ones_like(v)

    _quad.band_correlation(w, w, sup, sup, np.array([0.0, 0.35 * 18e9, 7e9]), 4 * rate)
    assert len(seen) == 6  # one row per block here, two integrands each
    for v, plus, minus in seen:
        exact = np.exp(2j * np.pi * rate * v)
        assert np.max(np.abs(plus - exact)) <= 1e-12
        assert np.max(np.abs(minus - exact.conj())) <= 1e-12


def test_phasor_factors_match_exponentials_on_500_panels_and_more():
    # panels of 1.5 cycles, the widest step the recurrence takes: every
    # _RESEED-th panel factor is the exponential of its centre itself, each
    # other one departs from its seed's phase by the exact advance to within
    # 1e-13 (2.9e-14 measured), and the node factors are exponentials too
    rng = np.random.default_rng(7)
    for n_panels in (500, 643, 1001):
        width = rng.uniform(50e9, 800e9, 5)
        lo = rng.uniform(-400e9, 0.0, 5)
        rate = 1.5 * n_panels / width.max()
        half = 0.5 / n_panels
        centers = (2.0 * np.arange(n_panels) + 1.0) * half
        panel, node = _quad._phasors(rate, lo, width, centers)
        angle = 2.0 * np.pi * rate
        seeds = np.exp(1j * angle * (lo[:, None] + width[:, None] * centers[:: _quad._RESEED]))
        assert np.array_equal(panel[:, :: _quad._RESEED], seeds)
        steps = np.arange(n_panels) % _quad._RESEED
        for i in range(lo.size):
            # the exact advance in cycles, reduced modulo 1 before the exponential
            cycles = [Fraction(rate) * Fraction(width[i]) * Fraction(int(k), n_panels) for k in steps]
            advance = np.exp(2j * np.pi * np.array([float(c - int(c)) for c in cycles]))
            assert np.max(np.abs(panel[i] - np.repeat(seeds[i], _quad._RESEED)[:n_panels] * advance)) <= 1e-13
        exact = np.exp(1j * angle * (half * width)[:, None] * _quad._NODES)
        assert np.max(np.abs(node - exact)) <= 1e-15


@pytest.mark.parametrize("name", SPECTRA)
@pytest.mark.parametrize("lag", [1, -2])
def test_real_integrand_matches_the_complex_path(name, lag):
    # real node values take one real sum against the (Re, Im) node phasors
    spec = SPECTRA[name]
    sup = spec.support()
    shift = lag * LINK.delay

    def real(v, _):
        return spec.psd(v)

    def complex_(v, _):
        return spec.psd(v).astype(complex)

    rows = {}
    for label, w in (("real", real), ("complex", complex_)):
        pair = _quad.band_correlation(w, real, sup, sup, SHIFTS, abs(shift), lag=shift)
        mirror = _quad.band_correlation(w, real, sup, sup, SHIFTS, abs(shift), lag=-shift)
        assert np.array_equal(pair, mirror[::-1])
        rows[label] = pair
    # the two sums round differently: 6.9e-15 of the row peak measured
    for got, reference in zip(rows["real"], rows["complex"]):
        assert _peak_error(got, reference) <= 2e-14
