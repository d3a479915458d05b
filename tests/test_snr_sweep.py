"""snr_sweep: one array evaluation per batch of operating points.

A sweep must give each point the report that the point gives alone, make
as many source-model calls as one report, and keep every check per point.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from ibosmpf import (
    ConfigurationError,
    DomainError,
    RectangularSpectrum,
    reference_link,
    snr_pm,
    snr_ssb,
    snr_sweep,
)
from ibosmpf.spectrum import tabulate

ONE_POINT = {"ssb": snr_ssb, "pm": snr_pm}
F_C = np.linspace(4e9, 16e9, 121)


def _gamma_sweep(kind):
    link = reference_link(scheme_kind=kind)
    return [replace(link, scheme=replace(link.scheme, gamma=float(g))) for g in np.linspace(0.05, 1.2, 24)]


def _fc_sweep(kind):
    link = reference_link(scheme_kind=kind, gamma=0.41)
    return [link.with_delay_for_center(float(f)) for f in F_C[::5]]


def _bandwidth_sweep(kind):
    link = reference_link(scheme_kind=kind, gamma=0.41)
    return [link.with_spectrum(replace(link.spectrum, b=float(b))) for b in np.linspace(100e9, 800e9, 8)]


def _tabulated_fc_sweep(kind):
    link = reference_link(scheme_kind=kind, gamma=0.41)
    link = link.with_spectrum(tabulate(link.spectrum, 256))
    return [link.with_delay_for_center(float(f)) for f in np.linspace(4e9, 16e9, 5)]


def _close(got, want, rel=1e-13):
    return abs(got - want) <= rel * abs(want)


@pytest.mark.parametrize("kind", ["ssb", "pm"])
@pytest.mark.parametrize("sweep", [_gamma_sweep, _fc_sweep, _bandwidth_sweep, _tabulated_fc_sweep])
def test_sweep_equals_its_one_point_reports(kind, sweep):
    links = sweep(kind)
    swept = snr_sweep(links)
    assert len(swept) == len(links)
    rectangular = isinstance(links[0].spectrum, RectangularSpectrum)
    for link, got in zip(links, swept):
        want = ONE_POINT[kind](link)
        assert got.scheme == want.scheme and got.center_frequency == want.center_frequency
        for name in ("snr_linear", "signal_power", "noise_psd_at_signal", "snr_approx_linear"):
            assert _close(getattr(got, name), getattr(want, name)), name
        assert got.noise_breakdown.keys() == want.noise_breakdown.keys()
        if rectangular:
            for name, value in want.noise_breakdown.items():
                assert _close(got.noise_breakdown[name], value), name


def test_mixed_sweep_keeps_its_order():
    ssb, pm = _fc_sweep("ssb"), _gamma_sweep("pm")
    links = [link for pair in zip(ssb, pm) for link in pair]
    reports = snr_sweep(links)
    assert [r.scheme for r in reports] == ["ssb", "pm"] * min(len(ssb), len(pm))
    for link, got in zip(links, reports):
        assert _close(got.snr_linear, ONE_POINT[link.scheme.kind.value](link).snr_linear)


def _count_source_calls(monkeypatch):
    calls = Counter()
    for name in ("autocorrelation", "cross_spectrum"):

        def counted(self, *args, _original=getattr(RectangularSpectrum, name), _name=name):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(RectangularSpectrum, name, counted)
    return calls


def test_source_calls_are_counted_per_sweep(monkeypatch):
    calls = _count_source_calls(monkeypatch)
    link = reference_link(scheme_kind="pm", gamma=0.41)
    snr_pm(link)
    one_report = dict(calls)
    assert one_report == {"cross_spectrum": 5, "autocorrelation": 6}
    calls.clear()
    snr_sweep([link.with_delay_for_center(float(f)) for f in F_C])
    assert calls == one_report


def _with_point(kind, index, change):
    links = _gamma_sweep(kind)[:5]
    links[index] = change(links[index])
    return links


def _gamma(value):
    return lambda link: replace(link, scheme=replace(link.scheme, gamma=value))


def _unbalanced(link):
    return replace(link, interferometer=replace(link.interferometer, arm_ratio_k=0.5))


@pytest.mark.parametrize("kind", ["ssb", "pm"])
@pytest.mark.parametrize(
    "change,error,match",
    [
        (_gamma(1e-170), DomainError, "gamma = 1e-170 underflows"),  # gamma**2 is 0
        (_gamma(1e-160), DomainError, "SNR underflows to zero .* gamma = 1e-160"),  # gamma**2 is subnormal
        (_unbalanced, ConfigurationError, "assumes balanced arms; interferometer.arm_ratio_k is 0.5"),
    ],
    ids=["gamma_underflows", "snr_underflows", "unbalanced"],
)
def test_invalid_point_in_the_middle_raises(kind, change, error, match):
    with pytest.raises(error, match=match):
        snr_sweep(_with_point(kind, 2, change))
    snr_sweep(_gamma_sweep(kind)[:5])  # the same sweep without it is valid


@pytest.mark.parametrize("kind", ["ssb", "pm"])
def test_hermitian_check_covers_every_point(monkeypatch, kind):
    links = _fc_sweep(kind)[:5]
    faulty = links[2].delay  # R0 at the lag +d of the middle point only
    original = RectangularSpectrum.autocorrelation

    def autocorrelation(self, lag):
        r0 = original(self, lag)
        return np.where(np.isclose(lag, faulty, rtol=1e-12, atol=0.0), r0 * np.exp(0.3j), r0)

    monkeypatch.setattr(RectangularSpectrum, "autocorrelation", autocorrelation)
    with pytest.raises(DomainError, match="not Hermitian"):
        snr_sweep(links)
    snr_sweep(links[:2] + links[3:])


@pytest.mark.parametrize(
    "link,match",
    [
        (reference_link(scheme_kind="dsb"), "scheme: "),
        (reference_link(scheme_kind="ssb", gamma=0.0), "gamma: "),
        (reference_link(scheme_kind="ssb", gamma=0.0, delay_s=0.0), "gamma: "),  # before the passband
    ],
    ids=["dsb", "gamma-0", "gamma-0-no-passband"],
)
def test_rejections_lead_with_the_argument(link, match):
    with pytest.raises(ConfigurationError, match=f"^{match}"):
        snr_sweep([reference_link(), link])
