"""Internal self-checks raise DomainError, which the CLI maps to exit 3.

The line weights are sums of conjugate term pairs, so they stay real for any
autocorrelation that is a function of the lag alone, Hermitian or not.  So
every line-weight route (the PM and shared-modulator closed forms and the
engine) evaluates each lag once per call and checks R0(-u) = R0(u)* on those
values, which sees the non-Hermitian models below.  The drifting fixture,
whose phase drifts from one call to the next as a faulty source model's
would, trips that check too, before the realness check.
"""

import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from ibosmpf import DomainError, RectangularSpectrum, TabulatedSpectrum, reference_link
from ibosmpf.cli import main
from ibosmpf.closed_forms import signal_power_dsb, snr_ssb
from ibosmpf.decomposition import real_line_powers
from ibosmpf.engine import fundamental_line_power, general_intensity_psd
from ibosmpf.pm import pm_line_weights, snr_pm
from ibosmpf.spectrum import tabulate

GRID = np.linspace(-430e9, 430e9, 257)


@pytest.fixture
def drifting_autocorrelation(monkeypatch):
    """R0 whose phase advances by 0.3 rad per call, breaking Hermitian symmetry."""
    original = RectangularSpectrum.autocorrelation
    calls = itertools.count()

    def autocorrelation(self, lag):
        return original(self, lag) * np.exp(0.3j * next(calls))

    monkeypatch.setattr(RectangularSpectrum, "autocorrelation", autocorrelation)


@dataclass(frozen=True)
class ComplexDensity(RectangularSpectrum):
    """A PSD with a complex level, so the continuum is not real."""

    def psd(self, f):
        return RectangularSpectrum.psd(self, f) * (1.0 + 0.5j)


@pytest.mark.parametrize("kind,gamma", [("ssb", 0.39), ("pm", 0.41)])
def test_engine_line_check(kind, gamma, drifting_autocorrelation):
    link = reference_link(scheme_kind=kind, gamma=gamma)
    with pytest.raises(DomainError, match="not Hermitian"):
        general_intensity_psd(link, GRID)
    with pytest.raises(DomainError, match="not Hermitian"):
        fundamental_line_power(link, np.array([4e9, 10e9]))


def test_line_realness_check():
    with pytest.raises(DomainError, match="not real"):
        real_line_powers(np.array([[1.0, 2.0 + 1e-3j]]), np.array([[1e9, 2e9]]))


def test_engine_continuum_check():
    link = reference_link()
    s = link.spectrum
    link = link.with_spectrum(ComplexDensity(n0=s.n0, b=s.b, carrier_f0=s.carrier_f0))
    with pytest.raises(DomainError, match="imaginary part"):
        general_intensity_psd(link, GRID)


@dataclass(frozen=True)
class OddPhaseDensity(RectangularSpectrum):
    """The rectangle times exp(j 1e-11 f): a complex PSD whose phase is odd in f."""

    def psd(self, f):
        return RectangularSpectrum.psd(self, f) * np.exp(1e-11j * np.asarray(f, dtype=float))


@pytest.mark.parametrize("kind,gamma", [("ssb", 0.39), ("pm", 0.41), ("dsb", 0.39)])
def test_engine_continuum_check_odd_phase(kind, gamma):
    # each -lag correlation must be summed from its own integrand: taking it
    # as the conjugate of the +lag sum makes this continuum read as real
    link = reference_link(scheme_kind=kind, gamma=gamma)
    s = link.spectrum
    link = link.with_spectrum(OddPhaseDensity(n0=s.n0, b=s.b, carrier_f0=s.carrier_f0))
    with pytest.raises(DomainError, match="imaginary part"):
        general_intensity_psd(link, GRID)


def test_pm_line_check(drifting_autocorrelation):
    link = reference_link(scheme_kind="pm", gamma=0.41)
    with pytest.raises(DomainError, match="not Hermitian"):
        pm_line_weights(link)


PM_LINK = """link:
  scheme: pm
  bandwidth: 3.2 nm
  center_wavelength: 1550 nm
  dispersion: -989 ps/nm
  delay: 79.4 ps
  gamma: 0.41
"""
SWEEP_F_M = """sweep:
  variable: f_m
  start: 2 GHz
  stop: 16 GHz
  points: 15
"""


def test_cli_maps_line_check_to_exit_3(tmp_path, capsys, drifting_autocorrelation):
    scenario = tmp_path / "pm.yaml"
    scenario.write_text(PM_LINK + SWEEP_F_M)
    assert main(["response", "--scenario", str(scenario)]) == 3
    assert "not Hermitian" in capsys.readouterr().err


# R0 models that are functions of the lag alone but not Hermitian; each maps
# the true R0(u) at lag u to the faulty value.  None trips the realness check.
NON_HERMITIAN = {
    "constant_phase": lambda r, lag: r * np.exp(0.3j),
    "complex_level": lambda r, lag: r * (1.0 + 0.5j),
    "even_imaginary_part": lambda r, lag: r * (1.0 + 0.2j * np.cos(np.asarray(lag) / 1e-10)),
    "odd_real_part": lambda r, lag: r * (1.0 + 0.2 * np.tanh(np.asarray(lag) / 1e-10)),
}


@pytest.fixture(params=sorted(NON_HERMITIAN))
def non_hermitian_autocorrelation(request, monkeypatch):
    original = RectangularSpectrum.autocorrelation
    model = NON_HERMITIAN[request.param]
    monkeypatch.setattr(
        RectangularSpectrum, "autocorrelation", lambda self, lag: model(original(self, lag), lag)
    )


def test_pm_hermitian_check(non_hermitian_autocorrelation):
    link = reference_link(scheme_kind="pm", gamma=0.41)
    with pytest.raises(DomainError, match="not Hermitian"):
        pm_line_weights(link)
    with pytest.raises(DomainError, match="not Hermitian"):
        pm_line_weights(link, f_m=np.linspace(2e9, 16e9, 15))
    with pytest.raises(DomainError, match="not Hermitian"):
        pm_line_weights(link, orders=(1,))  # the check evaluates the order -1 mirrors
    with pytest.raises(DomainError, match="not Hermitian"):
        snr_pm(link)


@pytest.mark.parametrize("command,sweep", [("snr", ""), ("response", SWEEP_F_M)], ids=["snr", "response"])
def test_cli_maps_hermitian_check_to_exit_3(tmp_path, capsys, non_hermitian_autocorrelation, command, sweep):
    scenario = tmp_path / "pm.yaml"
    scenario.write_text(PM_LINK + sweep)
    assert main([command, "--scenario", str(scenario)]) == 3
    assert "not Hermitian" in capsys.readouterr().err


@pytest.mark.parametrize("kind,gamma", [("ssb", 0.39), ("pm", 0.41), ("dsb", 0.39)])
def test_engine_hermitian_check(non_hermitian_autocorrelation, kind, gamma):
    link = reference_link(scheme_kind=kind, gamma=gamma)
    with pytest.raises(DomainError, match="not Hermitian"):
        fundamental_line_power(link, np.array([4e9, 10e9]))
    with pytest.raises(DomainError, match="not Hermitian"):
        general_intensity_psd(link, GRID)


def test_shared_modulator_hermitian_check(non_hermitian_autocorrelation):
    with pytest.raises(DomainError, match="not Hermitian"):
        snr_ssb(reference_link())
    with pytest.raises(DomainError, match="not Hermitian"):
        signal_power_dsb(reference_link(scheme_kind="dsb", gamma=0.39), np.linspace(2e9, 16e9, 15))


@pytest.mark.parametrize("kind", ["ssb", "dsb"])
def test_cli_maps_shared_modulator_hermitian_check_to_exit_3(tmp_path, capsys, non_hermitian_autocorrelation, kind):
    scenario = tmp_path / f"{kind}.yaml"
    scenario.write_text(PM_LINK.replace("scheme: pm", f"scheme: {kind}").replace("0.41", "0.39") + SWEEP_F_M)
    assert main(["response", "--scenario", str(scenario)]) == 3
    assert "not Hermitian" in capsys.readouterr().err


def test_hermitian_check_passes_source_models():
    # every file under scenarios/ runs to exit 0 in test_scenarios.py
    link = reference_link(scheme_kind="pm", gamma=0.41)
    s = link.spectrum
    grid = np.linspace(-s.b, s.b, 1024)
    gaussian = TabulatedSpectrum(grid=grid, values=np.exp(-((grid / (0.4 * s.b)) ** 2)))
    f_m = np.linspace(2e9, 16e9, 15)
    for spectrum in (s, tabulate(s, 1024), gaussian):
        model = link.with_spectrum(spectrum)
        pm_line_weights(model, f_m=f_m)
        pm_line_weights(model, orders=(1, 2))
        snr_pm(model)
        fundamental_line_power(model, f_m)
        snr_ssb(reference_link().with_spectrum(spectrum))
        signal_power_dsb(reference_link(scheme_kind="dsb", gamma=0.39).with_spectrum(spectrum), f_m)
