import numpy as np
import pytest

from ibosmpf import DomainError, noise_to_signal_ratio, oeo_phase_noise, reference_link, snr_ssb

TAU = 1e-6
DELTA = 1e-12  # delta/tau = 1e-6


def test_half_mode_value_approaches_quarter_delta():
    got = float(oeo_phase_noise(DELTA, TAU, np.array([0.5 / TAU]))[0])
    assert got == pytest.approx(DELTA / 4.0, rel=1e-3)


def test_low_offset_plateau():
    # offset -> 0 limit: 4 tau^2 / delta (needs the cancellation-free form)
    got = float(oeo_phase_noise(DELTA, TAU, np.array([1e-9 / TAU]))[0])
    assert got == pytest.approx(4.0 * TAU**2 / DELTA, rel=1e-3)


def test_maxima_exactly_at_loop_modes():
    f = np.linspace(0.05 / TAU, 3.45 / TAU, 1000 * 7 + 1)
    modes = np.arange(1, 4) / TAU  # loop modes k / tau
    grid = np.unique(np.concatenate([f, modes]))
    s = oeo_phase_noise(DELTA, TAU, grid)
    for mode in modes:
        idx = int(np.argmin(np.abs(grid - mode)))
        assert grid[idx] == mode
        assert s[idx] == pytest.approx(s.max(), rel=1e-9)


def test_near_linear_scaling_in_delta():
    f = np.array([0.5 / TAU])
    s1 = float(oeo_phase_noise(DELTA, TAU, f)[0])
    s2 = float(oeo_phase_noise(2 * DELTA, TAU, f)[0])
    assert s2 == pytest.approx(2.0 * s1, rel=1e-3)


def test_domain_errors():
    with pytest.raises(DomainError):
        oeo_phase_noise(2e-6, TAU, np.array([1.0]))  # delta >= tau
    with pytest.raises(DomainError):
        oeo_phase_noise(-1e-12, TAU, np.array([1.0]))
    with pytest.raises(DomainError):
        oeo_phase_noise(DELTA, 0.0, np.array([1.0]))


def test_delta_from_snr_report():
    report = snr_ssb(reference_link())
    delta = noise_to_signal_ratio(report)
    assert delta == pytest.approx(1.0 / report.snr_linear, rel=1e-15)
    # bench link in a 1 us loop sits well inside the formula's domain
    assert 0 < delta < TAU
