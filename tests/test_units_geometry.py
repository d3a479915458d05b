import math

import numpy as np
import pytest

from ibosmpf import (
    ConfigurationError,
    DomainError,
    NoPassbandError,
    center_frequency,
    csr_from_gamma,
    delay_for_center,
    dsb_fading_null_frequency,
    noise_figure,
    optical_fsr,
    phi_from_dispersion,
)
from ibosmpf.geometry import DispersionSpec, InterferometerSpec
from ibosmpf.units import (
    dbm_to_watts,
    optical_bandwidth_to_hz,
    wavelength_to_frequency,
)

PS_PER_NM = 1e-12 / 1e-9
BENCH_D = -989.0 * PS_PER_NM  # accumulated dispersion, s/m
BENCH_LAMBDA = 1550e-9
BENCH_DELAY = 79.4e-12
# frozen from the defining formula with the exact vacuum light speed
BENCH_PHI = 1.2614182693005488e-21
BENCH_FC = 10018011304.453043


def test_phi_from_bench_dispersion():
    phi = phi_from_dispersion(BENCH_D, BENCH_LAMBDA)
    assert phi == pytest.approx(BENCH_PHI, rel=1e-12)
    assert phi == pytest.approx(1.2615e-21, rel=1e-3)


def test_phi_zero_dispersion():
    assert phi_from_dispersion(0.0, BENCH_LAMBDA) == 0.0


def test_phi_antisymmetric_in_dispersion():
    assert phi_from_dispersion(-BENCH_D, BENCH_LAMBDA) == -phi_from_dispersion(
        BENCH_D, BENCH_LAMBDA
    )


def test_phi_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        phi_from_dispersion(float("nan"), BENCH_LAMBDA)
    with pytest.raises(ConfigurationError):
        phi_from_dispersion(BENCH_D, -1.0)


def test_center_frequency_bench_point():
    f_c = center_frequency(BENCH_DELAY, BENCH_PHI)
    assert f_c == pytest.approx(BENCH_FC, rel=1e-12)
    # the advertised ~10 GHz operating point, within 0.5%
    assert f_c == pytest.approx(10e9, rel=5e-3)


def test_center_frequency_zero_delay():
    assert center_frequency(0.0, BENCH_PHI) == 0.0


def test_center_frequency_round_trip():
    d = delay_for_center(10e9, BENCH_PHI)
    assert center_frequency(d, BENCH_PHI) == pytest.approx(10e9, rel=1e-15)


def test_center_frequency_errors():
    with pytest.raises(NoPassbandError):
        center_frequency(BENCH_DELAY, 0.0)
    with pytest.raises(DomainError):
        center_frequency(BENCH_DELAY, -BENCH_PHI)


def test_optical_fsr_bench():
    fsr = optical_fsr(BENCH_LAMBDA, BENCH_DELAY)
    assert fsr == pytest.approx(0.101e-9, abs=1e-12)
    assert fsr == pytest.approx(0.10093044568180859e-9, rel=1e-12)


def test_optical_fsr_scaling_and_other_band():
    fsr = optical_fsr(BENCH_LAMBDA, BENCH_DELAY)
    assert optical_fsr(BENCH_LAMBDA, 2 * BENCH_DELAY) == pytest.approx(fsr / 2, rel=1e-12)
    assert optical_fsr(1310e-9, BENCH_DELAY) == pytest.approx(0.0721e-9, rel=1e-3)
    with pytest.raises(ConfigurationError):
        optical_fsr(BENCH_LAMBDA, 0.0)


def test_bandwidth_conversion():
    b = optical_bandwidth_to_hz(3.2e-9, BENCH_LAMBDA)
    assert b == pytest.approx(399.307e9, rel=1e-4)


def test_power_conversions():
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)
    assert dbm_to_watts(6.0) == pytest.approx(10.0**0.6 * 1e-3, rel=1e-12)


def test_dispersion_spec_from_parameter():
    spec = DispersionSpec.from_dispersion_parameter(BENCH_D, BENCH_LAMBDA)
    assert spec.phi == pytest.approx(BENCH_PHI, rel=1e-12)


def test_interferometer_validation():
    f0 = wavelength_to_frequency(BENCH_LAMBDA)
    spec = InterferometerSpec(delay_d=BENCH_DELAY, carrier_f0=f0)
    assert spec.carrier_phase == pytest.approx(2 * math.pi * f0 * BENCH_DELAY)
    # a NaN part makes abs(k) NaN, which fails every comparison: a '> 1' test would
    # let it through, and the balanced-arm forms would take it for k = 1
    for k in (1.5, complex(math.nan, 0.0), complex(1.0, math.nan)):
        with pytest.raises(ConfigurationError, match="arm_ratio_k"):
            InterferometerSpec(delay_d=BENCH_DELAY, carrier_f0=f0, arm_ratio_k=k)


@pytest.mark.parametrize(
    "helper,args,argument",
    [
        (optical_fsr, (math.nan, 1e-10), "wavelength"),
        (optical_fsr, (1.55e-6, math.nan), "delay"),
        (noise_figure, (math.nan, 90.0), "p_in_w"),
        (csr_from_gamma, (math.nan,), "gamma"),
        (csr_from_gamma, (math.inf,), "gamma"),
        (dsb_fading_null_frequency, (math.nan,), "phi"),
        (dsb_fading_null_frequency, (1e-21, -1), "order"),
        (delay_for_center, (math.nan, 1e-21), "f_c"),
        (wavelength_to_frequency, (math.nan,), "wavelength"),
        (optical_bandwidth_to_hz, (1e-9, math.nan), "wavelength"),
    ],
)
def test_scalar_helpers_reject_nan_and_infinity(helper, args, argument):
    # NaN fails every comparison, so each check is written to pass only for
    # a valid value; a bare math-domain ValueError is not one of the errors
    with pytest.raises((ConfigurationError, DomainError), match=argument):
        helper(*args)
