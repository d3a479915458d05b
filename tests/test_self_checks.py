"""Internal realness checks raise DomainError, which the CLI maps to exit 3.

The line weights are sums of conjugate term pairs, so they stay real for any
autocorrelation that is a function of the lag alone, Hermitian or not.  The
fixture below breaks that: its phase drifts from one call to the next, as a
faulty source model would, so the pairs no longer cancel.
"""

import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from ibosmpf import DomainError, RectangularSpectrum, reference_link
from ibosmpf.cli import main
from ibosmpf.engine import fundamental_line_power, general_intensity_psd
from ibosmpf.pm import pm_line_weights

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
    with pytest.raises(DomainError, match="not real"):
        general_intensity_psd(link, GRID)
    with pytest.raises(DomainError, match="not real"):
        fundamental_line_power(link, np.array([4e9, 10e9]))


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
    with pytest.raises(DomainError, match=r"\|imag\|/\|real\|"):
        pm_line_weights(link)


def test_cli_maps_line_check_to_exit_3(tmp_path, capsys, drifting_autocorrelation):
    scenario = tmp_path / "pm.yaml"
    scenario.write_text(
        """link:
  scheme: pm
  bandwidth: 3.2 nm
  center_wavelength: 1550 nm
  dispersion: -989 ps/nm
  delay: 79.4 ps
  gamma: 0.41
sweep:
  variable: f_m
  start: 2 GHz
  stop: 16 GHz
  points: 15
"""
    )
    assert main(["response", "--scenario", str(scenario)]) == 3
    assert "not real" in capsys.readouterr().err
