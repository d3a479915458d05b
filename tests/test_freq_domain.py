import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ibosmpf import (
    ConfigurationError,
    freq_domain_noise_psd,
    freq_domain_signal_power,
    reference_link,
)
from ibosmpf.closed_forms import (
    fringed_noise_spectrum,
    noise_psd_shared,
    signal_power_ssb,
)
from ibosmpf.config import LinkConfig
from ibosmpf.geometry import DispersionSpec, InterferometerSpec
from ibosmpf.modulation import ModulationKind, SchemeConfig
from ibosmpf.spectrum import RectangularSpectrum


def random_ssb_link(rng) -> LinkConfig:
    b = rng.uniform(50e9, 800e9)
    n0 = 10.0 ** rng.uniform(-3, 3)
    f0 = rng.uniform(150e12, 250e12)
    phi = rng.uniform(0.2e-21, 4e-21)
    f_c = rng.uniform(2e9, 18e9)
    gamma = rng.uniform(0.05, 1.2)
    d = 2 * np.pi * phi * f_c
    return LinkConfig(
        spectrum=RectangularSpectrum(n0=n0, b=b, carrier_f0=f0),
        interferometer=InterferometerSpec(delay_d=d, carrier_f0=f0),
        dispersion=DispersionSpec(phi=phi),
        scheme=SchemeConfig(kind=ModulationKind.SSB, f_m=f_c, gamma=gamma),
    )


def test_bench_point_cross_path_equality():
    link = reference_link()
    link = link.with_modulation_frequency(link.passband_center())
    f_c = link.scheme.f_m
    sig_td = signal_power_ssb(link, f_c)
    sig_fd = freq_domain_signal_power(link)
    assert sig_fd == pytest.approx(sig_td, rel=1e-9)
    no_td = noise_psd_shared(link, f_c)
    no_fd = freq_domain_noise_psd(link, f_c)
    assert no_fd == pytest.approx(no_td, rel=1e-9)


def test_randomized_cross_path_equality():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        link = random_ssb_link(rng)
        f_c = link.passband_center()
        assert freq_domain_signal_power(link) == pytest.approx(
            signal_power_ssb(link, f_c), rel=1e-9
        )
        for f in (f_c, 0.35 * f_c):
            assert freq_domain_noise_psd(link, f) == pytest.approx(
                noise_psd_shared(link, f), rel=1e-9
            )


@pytest.mark.parametrize("ratio", [0.2, 0.6, 1.7, 4.0, 8.0])
def test_drawn_links_with_the_tone_off_the_passband_center(ratio):
    # f_m = ratio f_c moves v_m = 2 pi phi f_m off d: the signal quadrature
    # oscillates at |d| + |v_m|, the noise quadratures still at 2 |d|
    rng = np.random.default_rng(round(10 * ratio))
    for _ in range(8):
        link = random_ssb_link(rng)
        f_c = link.passband_center()
        link = link.with_modulation_frequency(ratio * f_c)
        assert freq_domain_signal_power(link) == pytest.approx(signal_power_ssb(link), rel=1e-9)
        freqs = (f_c, 0.35 * f_c, link.scheme.f_m)
        for value, f in zip(freq_domain_noise_psd(link, np.array(freqs)), freqs):
            assert value == pytest.approx(noise_psd_shared(link, f), rel=1e-9)


def test_zero_gamma_noise_reduces_to_fringed_spectrum():
    link = reference_link(gamma=0.0)
    link = link.with_modulation_frequency(link.passband_center())
    # force the SSB kind with zero index: sidebands vanish
    for f in (4e9, 10e9):
        got = freq_domain_noise_psd(link, f)
        want = float(fringed_noise_spectrum(link.spectrum, link.delay, link.carrier_phase, f))
        assert got == pytest.approx(want, rel=1e-9)


def test_rejects_non_ssb():
    link = reference_link(scheme_kind="pm", gamma=0.4)
    with pytest.raises(ConfigurationError):
        freq_domain_signal_power(link)


@given(
    b=st.floats(50e9, 800e9),
    log_n0=st.floats(-3.0, 3.0),
    phi=st.floats(0.2e-21, 4e-21),
    f_c=st.floats(2e9, 18e9),
    gamma=st.floats(0.05, 1.2),
    theta0=st.floats(0.0, 2.0 * math.pi),
)
def test_drawn_links_with_a_drawn_carrier_phase(b, log_n0, phi, f_c, gamma, theta0):
    # C4 with the carrier phase drawn independently of the delay: the
    # interferometer's carrier sits near 193 THz, moved so that 2 pi f0 d is
    # theta0 plus a whole number of cycles
    d = 2.0 * math.pi * phi * f_c
    f0 = (round(193e12 * d) + theta0 / (2.0 * math.pi)) / d
    link = LinkConfig(
        spectrum=RectangularSpectrum(n0=10.0**log_n0, b=b, carrier_f0=193e12),
        interferometer=InterferometerSpec(delay_d=d, carrier_f0=f0),
        dispersion=DispersionSpec(phi=phi),
        scheme=SchemeConfig(kind=ModulationKind.SSB, f_m=f_c, gamma=gamma),
    )
    f_c = link.passband_center()
    assert freq_domain_signal_power(link) == pytest.approx(signal_power_ssb(link, f_c), rel=1e-9)
    noise = freq_domain_noise_psd(link, np.array([f_c, 0.35 * f_c]))
    for value, f in zip(noise, (f_c, 0.35 * f_c)):
        assert value == pytest.approx(noise_psd_shared(link, f), rel=1e-9)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rejects_a_non_finite_frequency(bad):
    link = reference_link()
    with pytest.raises(ConfigurationError, match="f must be finite"):
        freq_domain_noise_psd(link, bad)
    with pytest.raises(ConfigurationError, match="f must be finite"):
        freq_domain_noise_psd(link, np.array([4e9, bad]))
