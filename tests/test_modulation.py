import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import j0 as scipy_j0
from scipy.special import j1 as scipy_j1

from ibosmpf import (
    ConfigurationError,
    HarmonicModulation,
    ModulationKind,
    SchemeConfig,
    build_scheme,
    csr_from_gamma,
    cyclic_autocorrelation,
    gamma_from_csr,
)
from ibosmpf.modulation import (
    bessel_j01,
    cyclic_orders,
    dual_input_mzm_scheme,
    polarization_modulator_scheme,
)

F_M = 10e9


# --- scheme construction ---------------------------------------------------


def test_dsb_coefficients():
    m1, m2 = build_scheme(SchemeConfig(kind=ModulationKind.DSB, f_m=F_M, gamma=0.4))
    assert m1.coeffs == m2.coeffs
    assert m1.coefficient(0) == 1.0
    assert m1.coefficient(1) == pytest.approx(0.2)
    assert m1.coefficient(-1) == pytest.approx(0.2)


def test_ssb_coefficients():
    m1, _ = build_scheme(SchemeConfig(kind=ModulationKind.SSB, f_m=F_M, gamma=0.4))
    assert m1.coefficient(1) == pytest.approx(0.2)
    assert m1.coefficient(-1) == 0.0


def test_pm_coefficients():
    gamma = 0.41
    m1, m2 = build_scheme(SchemeConfig(kind=ModulationKind.PM, f_m=F_M, gamma=gamma))
    assert m1.coefficient(0) == pytest.approx(scipy_j0(gamma), abs=1e-12)
    assert m1.coefficient(1) == pytest.approx(scipy_j1(gamma), abs=1e-12)
    assert m1.coefficient(-1) == pytest.approx(-scipy_j1(gamma), abs=1e-12)
    assert m2.orders() == (0,) and m2.coefficient(0) == 1.0


def test_zero_gamma_collapses_to_unmodulated():
    for kind in (ModulationKind.DSB, ModulationKind.SSB, ModulationKind.PM):
        m1, m2 = build_scheme(SchemeConfig(kind=kind, f_m=F_M, gamma=0.0))
        assert m1.coefficient(0) == pytest.approx(1.0)
        assert m1.coefficient(1) == pytest.approx(0.0)
        assert m2.coefficient(0) == pytest.approx(1.0)


def test_small_signal_gamma_limit():
    with pytest.raises(ConfigurationError):
        SchemeConfig(kind=ModulationKind.DSB, f_m=F_M, gamma=1.6)
    SchemeConfig(kind=ModulationKind.CUSTOM, f_m=F_M, gamma=2.0, m1_coeffs={0: 1.0})


def test_equivalent_single_arm_constructors():
    gamma = 0.5
    # the equivalent model's J0 (or jJ0) is the constant of the second arm
    polm = build_scheme(polarization_modulator_scheme(gamma, F_M))
    assert polm[1].orders() == (0,)
    assert polm[1].coefficient(0) == pytest.approx(scipy_j0(gamma), abs=1e-12)
    assert polm[0].coefficient(1) == pytest.approx(1j * scipy_j1(gamma), abs=1e-12)
    dimzm = build_scheme(dual_input_mzm_scheme(gamma, F_M))
    assert dimzm[1].orders() == (0,)
    assert dimzm[1].coefficient(0) == pytest.approx(1j * scipy_j0(gamma), abs=1e-12)
    assert dimzm[0].coefficient(-1) == pytest.approx(scipy_j1(gamma), abs=1e-12)


def test_bessel_j01_matches_scipy():
    gamma = np.linspace(0.0, 60.0, 6001)
    j0, j1 = bessel_j01(gamma)  # one node count, that of the largest gamma
    assert np.max(np.abs(j0 - scipy_j0(gamma))) <= 2e-15
    assert np.max(np.abs(j1 - scipy_j1(gamma))) <= 2e-15
    for g in gamma[::60]:  # each on its own node count
        j0, j1 = bessel_j01(g)
        assert abs(j0 - scipy_j0(g)) <= 2e-15 and abs(j1 - scipy_j1(g)) <= 2e-15
    j0, j1 = bessel_j01(-gamma)  # J0 even, J1 odd
    assert np.max(np.abs(j0 - scipy_j0(gamma))) <= 2e-15
    assert np.max(np.abs(j1 + scipy_j1(gamma))) <= 2e-15


def test_bessel_j01_small_arguments():
    assert bessel_j01(0.0) == (1.0, 0.0)
    j0, j1 = bessel_j01(1e-8)
    assert j0 == scipy_j0(1e-8) == 1.0
    assert j1 == pytest.approx(scipy_j1(1e-8), rel=1e-15, abs=0)
    assert np.shape(j0) == np.shape(j1) == ()
    j0, j1 = bessel_j01(np.full((2, 3), 0.41))
    assert j0.shape == j1.shape == (2, 3)


def test_harmonic_order_cap():
    with pytest.raises(ConfigurationError):
        HarmonicModulation(F_M, {9: 0.1})


# --- cyclic autocorrelation ------------------------------------------------


def test_dsb_cyclic_zero_order_at_zero_lag():
    gamma = 0.4
    m1, _ = build_scheme(SchemeConfig(kind=ModulationKind.DSB, f_m=F_M, gamma=gamma))
    assert cyclic_autocorrelation(m1, 0, 0.0) == pytest.approx(1 + gamma**2 / 2)


def test_ssb_cyclic_orders():
    gamma = 0.4
    m1, _ = build_scheme(SchemeConfig(kind=ModulationKind.SSB, f_m=F_M, gamma=gamma))
    v = 13e-12
    assert cyclic_autocorrelation(m1, 1, v) == pytest.approx(
        (gamma / 2) * np.exp(2j * np.pi * F_M * v)
    )
    assert cyclic_autocorrelation(m1, -1, v) == pytest.approx(gamma / 2)
    assert cyclic_orders(m1.coeffs) == (-1, 0, 1)


def test_no_sidebands_without_modulation():
    m1, _ = build_scheme(SchemeConfig(kind=ModulationKind.UNMODULATED, f_m=F_M))
    for v in (0.0, 7e-12):
        assert cyclic_autocorrelation(m1, 1, v) == 0.0
        assert cyclic_autocorrelation(m1, -1, v) == 0.0


def _time_average_cyclic(m: HarmonicModulation, s: int, v: float, n=4096) -> complex:
    # independent oracle: trapezoidal time average over one period
    t = np.linspace(0.0, 1.0 / m.f_m, n, endpoint=False)
    values = np.conj(m.evaluate(t)) * m.evaluate(t + v) * np.exp(-2j * np.pi * s * m.f_m * t)
    return complex(values.mean())


coeff_strategy = st.dictionaries(
    st.integers(-3, 3),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=4,
)


@given(coeffs=coeff_strategy, s=st.integers(-4, 4), v=st.floats(-2e-10, 2e-10))
def test_cyclic_autocorrelation_matches_time_average(coeffs, s, v):
    m = HarmonicModulation(F_M, coeffs)
    got = cyclic_autocorrelation(m, s, v)
    want = _time_average_cyclic(m, s, v)
    scale = max(sum(abs(c) ** 2 for c in coeffs.values()), 1e-9)
    assert got == pytest.approx(want, abs=1e-9 * scale)


@given(coeffs=coeff_strategy)
def test_parseval_identity(coeffs):
    m = HarmonicModulation(F_M, coeffs)
    got = cyclic_autocorrelation(m, 0, 0.0)
    want = sum(abs(c) ** 2 for c in m.coeffs.values())
    assert got.imag == pytest.approx(0.0, abs=1e-12 * max(want, 1e-12))
    assert got.real == pytest.approx(want, rel=1e-12, abs=1e-15)


@given(coeffs=coeff_strategy, s=st.integers(-4, 4), v=st.floats(-2e-10, 2e-10))
def test_cyclic_conjugation_identity(coeffs, s, v):
    # R^(-s)(v) = exp(-j 2 pi f_m s v) * conj(R^(s)(-v))
    m = HarmonicModulation(F_M, coeffs)
    lhs = cyclic_autocorrelation(m, -s, v)
    rhs = np.exp(-2j * np.pi * m.f_m * s * v) * np.conj(cyclic_autocorrelation(m, s, -v))
    scale = max(sum(abs(c) ** 2 for c in coeffs.values()), 1e-9)
    assert lhs == pytest.approx(rhs, abs=1e-12 * scale)


# --- CSR <-> gamma ----------------------------------------------------------


def test_csr_examples():
    assert gamma_from_csr(0.0) == pytest.approx(2.0)
    assert gamma_from_csr(20.0) == pytest.approx(0.2)
    assert csr_from_gamma(0.44) == pytest.approx(13.151546383555877, rel=1e-12)
    assert csr_from_gamma(0.44) == pytest.approx(13.15, abs=5e-3)


@given(csr=st.floats(-20, 60))
def test_csr_round_trip(csr):
    assert csr_from_gamma(gamma_from_csr(csr)) == pytest.approx(csr, abs=1e-9)


def test_csr_domain():
    with pytest.raises(ConfigurationError):
        csr_from_gamma(0.0)
    with pytest.raises(ConfigurationError):
        gamma_from_csr(float("inf"))
