import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ibosmpf import ConfigurationError, RectangularSpectrum, TabulatedSpectrum
from ibosmpf.spectrum import sinc, tabulate

B = 400e9
N0 = 1.0


def make_rect(n0=N0, b=B):
    return RectangularSpectrum(n0=n0, b=b)


# --- sinc -------------------------------------------------------------


def test_sinc_values():
    assert sinc(0.0) == 1.0
    assert sinc(np.pi) == pytest.approx(0.0, abs=1e-15)
    x = 1e-5
    assert sinc(x) == pytest.approx(np.sin(x) / x, rel=1e-14)


def test_sinc_series_branch_continuous():
    xs = np.array([9.9e-5, 1.01e-4])
    vals = sinc(xs)
    assert abs(vals[0] - vals[1]) < 1e-9


# --- rectangular model --------------------------------------------------


def test_rect_autocorrelation_at_zero_is_total_power():
    spec = make_rect()
    assert spec.autocorrelation(0.0) == pytest.approx(N0 * B)
    assert spec.total_power() == pytest.approx(N0 * B)


def test_rect_autocorrelation_first_null():
    spec = make_rect()
    assert abs(spec.autocorrelation(1.0 / B)) < 1e-12 * N0 * B


def test_rect_autoconvolution_examples():
    spec = make_rect()
    assert spec.intensity_autoconvolution(0.0) == pytest.approx(N0**2 * B)
    assert spec.intensity_autoconvolution(B) == 0.0
    assert spec.intensity_autoconvolution(10e9) == pytest.approx(390e9 * N0**2)
    assert spec.intensity_autoconvolution(10e9) == pytest.approx(
        0.975 * spec.intensity_autoconvolution(0.0)
    )


def test_rect_validation():
    with pytest.raises(ConfigurationError):
        RectangularSpectrum(n0=0.0, b=B)
    with pytest.raises(ConfigurationError):
        RectangularSpectrum(n0=N0, b=-1.0)


# --- tabulated model ----------------------------------------------------


def test_tabulated_autocorrelation_matches_rect_sinc():
    # fine sampling keeps the interpolant's edge error below 1e-6 * N0 * B
    n = 2**21 + 1
    grid = np.linspace(-B / 2, B / 2, n)
    spec = TabulatedSpectrum(grid=grid, values=np.full(n, N0))
    lags = np.linspace(-8.0 / B, 8.0 / B, 50)
    got = spec.autocorrelation(lags)
    want = make_rect().autocorrelation(lags)
    assert np.max(np.abs(got - want)) < 1e-6 * N0 * B


def test_tabulated_autocorrelation_blocks_match_per_lag_sum():
    spec = tabulate(make_rect(), 4096)  # 256 lags per block
    lags = np.linspace(-4.0 / B, 4.0 / B, 700)
    series = np.array([np.exp(2j * np.pi * u * spec.grid) @ spec.values for u in lags])
    want = spec.step * sinc(np.pi * spec.step * lags) ** 2 * series
    got = spec.autocorrelation(lags)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    np.testing.assert_array_equal(spec.autocorrelation(lags.reshape(7, 100)), got.reshape(7, 100))


def test_tabulated_autoconvolution_matches_triangle():
    spec = tabulate(make_rect(), 4097)
    f = np.linspace(-1.2 * B, 1.2 * B, 101)
    got = spec.intensity_autoconvolution(f)
    want = make_rect().intensity_autoconvolution(f)
    assert np.max(np.abs(got - want)) < 2e-3 * N0**2 * B


def test_tabulated_psd_zero_extension_and_power():
    spec = tabulate(make_rect(), 512)
    assert spec.psd(10 * B) == 0.0
    assert spec.total_power() == pytest.approx(N0 * B, rel=2e-2)


def test_tabulated_validation():
    grid = np.linspace(0, 1e9, 64)
    with pytest.raises(ConfigurationError):
        TabulatedSpectrum(grid=grid[:32], values=np.ones(32))  # too few points
    with pytest.raises(ConfigurationError):
        TabulatedSpectrum(grid=grid, values=-np.ones(64))
    bad = grid.copy()
    bad[10] = bad[9]
    with pytest.raises(ConfigurationError):
        TabulatedSpectrum(grid=bad, values=np.ones(64))


# --- cross spectrum (transform of shifted autocorrelation products) -----


def _cc_brute(spec: RectangularSpectrum, g: float, delta: float, n=2**16 + 1):
    # direct quadrature over the exact support overlap (independent oracle)
    lo = max(-spec.b / 2, g - spec.b / 2)
    hi = min(spec.b / 2, g + spec.b / 2)
    if hi <= lo:
        return 0.0 + 0.0j
    nu = np.linspace(lo, hi, n)
    return np.trapezoid(spec.n0**2 * np.exp(2j * np.pi * nu * delta), nu)


@pytest.mark.parametrize("g", [0.0, 10e9, -35e9, 250e9])
@pytest.mark.parametrize("delta", [0.0, 79.4e-12, -158.8e-12])
def test_rect_cross_spectrum_against_quadrature(g, delta):
    spec = make_rect()
    got = complex(np.asarray(spec.cross_spectrum(np.array([g]), delta))[0])
    want = _cc_brute(spec, g, delta)
    assert got == pytest.approx(want, rel=2e-5, abs=1e-5 * N0**2 * B)


def test_rect_cross_spectrum_against_lag_domain_transform():
    # triangulate with the defining lag-domain integral, trapezoid on a
    # dense truncated grid (loose tolerance from the truncated tails)
    spec = make_rect(b=50e9)
    d = 79.4e-12
    g = 7e9
    u = np.linspace(-6e-9, 6e-9, 2**18 + 1)
    r = np.asarray(spec.autocorrelation(u + d)) * np.conj(np.asarray(spec.autocorrelation(u)))
    direct = np.trapezoid(r * np.exp(-2j * np.pi * g * u), u)
    got = complex(np.exp(2j * np.pi * g * 0.0) * np.asarray(spec.cross_spectrum(np.array([g]), d))[0])
    assert got == pytest.approx(direct, rel=3e-3, abs=3e-3 * abs(direct))


def test_tabulated_cross_spectrum_matches_rect():
    rect = make_rect()
    tab = tabulate(rect, 8193)
    g = np.array([5e9, 60e9])
    for delta in (0.0, 40e-12):
        got = tab.cross_spectrum(g, delta)
        want = rect.cross_spectrum(g, delta)
        assert np.max(np.abs(got - want)) < 3e-3 * N0**2 * B


def _hat_sources():
    from ibosmpf import reference_link

    link = reference_link()
    b = link.spectrum.b
    ragged = np.linspace(-200e9, 200e9, 1024)
    smooth = np.linspace(-b, b, 4096)
    return link.delay, {
        "ragged": TabulatedSpectrum(grid=ragged, values=np.random.default_rng(0).uniform(0.5, 1.5, ragged.size)),
        "rectangle": tabulate(link.spectrum, 4096),
        "gaussian": TabulatedSpectrum(grid=smooth, values=np.exp(-0.5 * (smooth / (0.2 * b)) ** 2)),
    }


def _cc_piecewise(spec: TabulatedSpectrum, g: float, shift: float) -> complex:
    """CC(g, shift) of the interpolant: a 16-point Gauss-Legendre rule on each
    gap between the kinks of G(v) and G(v - g), in panels of at most one
    cycle of exp(j 2 pi v shift), so the rule is exact up to rounding."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    lo, hi = spec.support()
    ends = np.concatenate(([lo], spec.grid, [hi]))
    kinks = np.unique(np.clip(np.concatenate((ends, ends + g)), max(lo, lo + g), min(hi, hi + g)))
    gaps = np.diff(kinks)
    if not gaps.size:
        return 0j
    panels = int(np.ceil(abs(shift) * gaps.max())) + 1
    total = 0j
    for p in range(panels):
        half = gaps[:, None] / (2 * panels)
        v = kinks[:-1, None] + half * (2 * p + 1 + nodes)
        total += np.sum(half * weights * spec.psd(v) * spec.psd(v - g) * np.exp(2j * np.pi * shift * v))
    return total


@pytest.mark.parametrize("name", ["ragged", "rectangle", "gaussian"])
def test_tabulated_transforms_are_exact_for_the_interpolant(name):
    # shifts 0, +-d and +-2d of the reference link, and one s with
    # step * s = 15.3 (fifteen phasor cycles per grid step); f on and off
    # the grid, of both signs, and past the S0 support
    d, sources = _hat_sources()
    spec = sources[name]
    f = np.array([0.0, 3.3e9, -17.1e9, 95.55e9, -250e9, 399e9, 900e9])
    scale = spec.intensity_autoconvolution(0.0)
    for shift in (0.0, d, -d, 2 * d, -2 * d, 15.3 / spec.step):
        got = spec.cross_spectrum(f, shift)
        want = np.array([_cc_piecewise(spec, g, shift) for g in f])
        assert np.max(np.abs(got - want)) <= 1e-11 * scale, shift
        assert np.max(np.abs(spec.cross_spectrum(f, -shift) - got.conj())) <= 1e-11 * scale, shift
        if not shift:
            assert np.max(np.abs(spec.intensity_autoconvolution(f) - want.real)) <= 1e-11 * scale
    assert got[-1] == 0.0


def test_rect_autoconvolution_is_the_exact_triangle():
    # S0 is the cross spectrum at shift 0, where sinc(0) = 1 and exp(0) = 1
    # leave n0^2 (b - |f|) bit for bit
    spec = make_rect()
    f = np.linspace(-1.2 * B, 1.2 * B, 101)
    np.testing.assert_array_equal(spec.intensity_autoconvolution(f), N0**2 * np.clip(B - np.abs(f), 0.0, None))


# --- invariants ----------------------------------------------------------


@given(
    n0=st.floats(1e-6, 1e3),
    b=st.floats(1e9, 1e12),
    lag=st.floats(-1e-9, 1e-9),
)
def test_rect_hermitian_and_bounded(n0, b, lag):
    spec = make_rect(n0=n0, b=b)
    r_plus = spec.autocorrelation(lag)
    r_minus = spec.autocorrelation(-lag)
    assert r_minus == pytest.approx(np.conj(r_plus), rel=1e-12, abs=1e-12 * n0 * b)
    assert abs(r_plus) <= n0 * b * (1 + 1e-12)
    r0 = spec.autocorrelation(0.0)
    assert r0.imag == 0.0 and r0.real > 0


@given(f=st.floats(-2e12, 2e12), b=st.floats(1e9, 1e12))
def test_rect_autoconvolution_even_nonnegative_supported(f, b):
    spec = make_rect(b=b)
    s = spec.intensity_autoconvolution(f)
    assert s >= 0.0
    assert s == pytest.approx(spec.intensity_autoconvolution(-f), rel=1e-12, abs=1e-30)
    if abs(f) > b:
        assert s == 0.0


@pytest.mark.parametrize("model", ["rectangular", "tabulated"])
@pytest.mark.parametrize("shift", [np.nan, np.inf, [0.0, -np.inf]])
def test_a_non_finite_shift_is_named(model, shift):
    spec = make_rect() if model == "rectangular" else tabulate(make_rect(), 256)
    with pytest.raises(ConfigurationError, match="shift must be finite"):
        spec.cross_spectrum(1e9, shift)


def test_rect_autoconvolution_at_an_infinite_frequency_is_zero():
    # no 0 * inf in the phase: the CI run turns a RuntimeWarning into an error
    spec = make_rect()
    assert spec.intensity_autoconvolution(np.inf) == spec.intensity_autoconvolution(-np.inf) == 0.0
    assert np.isnan(spec.cross_spectrum(np.nan, 7.94e-11))


def test_tabulated_hermitian_for_asymmetric_spectrum():
    grid = np.linspace(-200e9, 200e9, 257)
    values = np.exp(-(((grid - 30e9) / 80e9) ** 2))
    spec = TabulatedSpectrum(grid=grid, values=values)
    lags = np.array([1e-12, 3.7e-12, 9e-12])
    fwd = spec.autocorrelation(lags)
    rev = spec.autocorrelation(-lags)
    np.testing.assert_allclose(rev, np.conj(fwd), rtol=1e-12, atol=1e-3)
    assert np.all(np.abs(fwd) <= abs(spec.autocorrelation(0.0)) * (1 + 1e-12))


def test_unit_scale_copy():
    spec = make_rect(n0=7.5)
    unit = spec.with_unit_scale()
    assert unit.n0 == 1.0 and unit.b == spec.b


# --- one shape rule ---------------------------------------------------


def _shape_evaluators():
    from ibosmpf import reference_link
    from ibosmpf.freq_domain import freq_domain_noise_psd
    from ibosmpf.pm import pm_continuum

    ssb = reference_link()
    tab = tabulate(ssb.spectrum, 256)
    pm_link = reference_link(scheme_kind="pm", gamma=0.41)
    return {
        "freq_domain_noise_psd": (lambda f: freq_domain_noise_psd(ssb, f), float),
        "tabulated_autoconvolution": (tab.intensity_autoconvolution, float),
        "tabulated_cross_spectrum": (lambda f: tab.cross_spectrum(f, 79.4e-12), complex),
        "rect_cross_spectrum": (lambda f: ssb.spectrum.cross_spectrum(f, 79.4e-12), complex),
        "pm_continuum": (lambda f: pm_continuum(pm_link, f), float),
    }


@pytest.mark.parametrize("shape", [(), (1,), (2, 3)])
@pytest.mark.parametrize("name", list(_shape_evaluators()))
def test_evaluators_return_the_shape_of_their_input(name, shape):
    """An array gives an array of its shape, one element included; a 0-d
    input gives a Python scalar.  The values are those of the flat call."""
    evaluate, scalar_type = _shape_evaluators()[name]
    f = np.linspace(2e9, 300e9, 6)[: int(np.prod(shape))].reshape(shape)
    got = evaluate(f)
    flat = evaluate(f.ravel())
    if shape:
        assert isinstance(got, np.ndarray) and got.shape == shape
    else:
        assert type(got) is scalar_type
    np.testing.assert_array_equal(np.ravel(got), flat)
