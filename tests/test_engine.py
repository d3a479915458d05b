import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ibosmpf import ConfigurationError, reference_link
from ibosmpf.closed_forms import shared_modulator_decomposition
from ibosmpf.engine import fundamental_line_power, general_intensity_psd
from ibosmpf.modulation import ModulationKind, SchemeConfig, polarization_modulator_scheme
from ibosmpf.pm import pm_decomposition, signal_power_pm
from ibosmpf.spectrum import tabulate

GRID = np.linspace(-440e9, 440e9, 513)


def _compare(engine, reference, rtol):
    scale = np.max(np.abs(reference.continuum))
    assert np.max(np.abs(engine.continuum - reference.continuum)) < rtol * scale
    for f, w in zip(reference.line_frequencies, reference.line_powers):
        got = engine.line_power_at(f)
        assert got == pytest.approx(w, rel=rtol, abs=rtol * max(reference.line_powers))


@pytest.mark.parametrize(
    "kind,gamma",
    [("unmodulated", 0.0), ("ssb", 0.39), ("dsb", 0.39)],
)
def test_engine_matches_shared_closed_forms(kind, gamma):
    link = reference_link(scheme_kind=kind, gamma=gamma)
    engine = general_intensity_psd(link, GRID)
    reference = shared_modulator_decomposition(link, GRID)
    _compare(engine, reference, 1e-6)


def test_engine_matches_pm_closed_form():
    link = reference_link(scheme_kind="pm", gamma=0.41)
    engine = general_intensity_psd(link, GRID)
    reference = pm_decomposition(link, GRID)
    _compare(engine, reference, 1e-6)


def test_engine_continuum_real_even_nonnegative():
    link = reference_link(scheme_kind="pm", gamma=0.41)
    grid = np.linspace(-430e9, 430e9, 401)
    decomp = general_intensity_psd(link, grid)
    assert np.all(decomp.continuum >= 0.0)
    np.testing.assert_allclose(
        decomp.continuum, decomp.continuum[::-1], rtol=1e-9, atol=1e-9 * decomp.continuum.max()
    )
    assert decomp.metadata["continuum_min_before_clamp"] >= -1e-12 * decomp.continuum.max()


def test_engine_rejects_coarse_grid():
    link = reference_link()
    with pytest.raises(ConfigurationError):
        general_intensity_psd(link, np.linspace(-440e9, 440e9, 65))


@pytest.mark.parametrize(
    "grid",
    [np.linspace(440e9, -440e9, 9), np.linspace(440e9, -440e9, 1001)],
    ids=["coarse", "fine"],
)
def test_engine_rejects_descending_grid(grid):
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        general_intensity_psd(reference_link(), grid)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_engine_rejects_non_finite_grid(bad):
    grid = GRID.copy()
    grid[100] = bad
    with pytest.raises(ConfigurationError, match="finite"):
        general_intensity_psd(reference_link(), grid)


# grids not symmetric about 0: few or none of the engine's quadrature shifts
# f -+ k f_m have a bit-exact mirror image, and a +-k_u group's panel count
# comes from one half only
@pytest.mark.parametrize(
    "grid",
    [np.linspace(-100e9, 440e9, 700), np.linspace(0.0, 440e9, 512)],
    ids=["offset", "one-sided"],
)
@pytest.mark.parametrize("kind,gamma", [("ssb", 0.39), ("dsb", 0.39), ("pm", 0.41)])
def test_engine_matches_closed_forms_on_grids_without_mirrors(kind, gamma, grid):
    link = reference_link(scheme_kind=kind, gamma=gamma)
    engine = general_intensity_psd(link, grid)
    if kind == "pm":
        reference = pm_decomposition(link, grid)
    else:
        reference = shared_modulator_decomposition(link, grid)
    _compare(engine, reference, 1e-6)


def _sum_rule_links():
    ref = reference_link()
    polarization = replace(ref, scheme=polarization_modulator_scheme(0.41, ref.scheme.f_m))
    return {
        "ssb": reference_link(scheme_kind="ssb", gamma=0.39),
        "dsb": reference_link(scheme_kind="dsb", gamma=0.39),
        "pm": reference_link(scheme_kind="pm", gamma=0.41),
        "polarization": replace(polarization, interferometer=replace(ref.interferometer, arm_ratio_k=0.6)),
    }


@pytest.mark.parametrize(
    "kind,route",
    [(kind, "engine") for kind in ("ssb", "dsb", "pm", "polarization")]
    + [(kind, "closed_form") for kind in ("ssb", "dsb", "pm")],
)
def test_gaussian_sum_rule(kind, route):
    """The field is circular Gaussian, so E[I^2] = 2 E[I]^2 at every t: the
    whole continuum integrates to the sum of every line power, DC included.
    The 4001-point trapezoid over +-(B + 3 f_m) is good to about 4e-8."""
    link = _sum_rule_links()[kind]
    closed_form = pm_decomposition if kind == "pm" else shared_modulator_decomposition
    evaluate = general_intensity_psd if route == "engine" else closed_form
    edge = link.spectrum.b + 3.0 * link.scheme.f_m
    grid = np.linspace(-edge, edge, 4001)
    decomp = evaluate(link, grid)
    lines = decomp.line_powers.sum()
    assert 0.0 in decomp.line_frequencies
    assert abs(np.trapezoid(decomp.continuum, grid) - lines) <= 1e-7 * lines


def test_engine_custom_scheme_with_arm_ratio():
    # the polarization-modulator equivalent: one modulated arm, constant
    # second arm scaled by J0; lines must stay real and nonnegative
    f_m = 10.018e9
    link = reference_link()
    scheme = polarization_modulator_scheme(0.5, f_m)
    link = link.__class__(
        spectrum=link.spectrum,
        interferometer=link.interferometer,
        dispersion=link.dispersion,
        scheme=scheme,
    )
    decomp = general_intensity_psd(link, np.linspace(-430e9, 430e9, 257))
    assert np.all(decomp.line_powers >= 0.0)
    assert np.all(decomp.continuum >= 0.0)
    assert decomp.line_power_at(f_m) > 0


def test_engine_single_arm_limit():
    # arm ratio 0 removes the delayed arm: DC line R0(0)^2, continuum S0(f)
    from dataclasses import replace

    base = reference_link(scheme_kind="unmodulated", gamma=0.0)
    link = replace(
        base, interferometer=replace(base.interferometer, arm_ratio_k=0.0 + 0.0j)
    )
    grid = np.linspace(-430e9, 430e9, 257)
    decomp = general_intensity_psd(link, grid)
    p = link.spectrum.total_power()
    assert decomp.line_power_at(0.0) == pytest.approx(p**2, rel=1e-12)
    want = np.asarray(link.spectrum.intensity_autoconvolution(grid))
    np.testing.assert_allclose(decomp.continuum, want, rtol=1e-9, atol=1e-9 * want.max())


@pytest.mark.parametrize("k", [0.3, 0.8, 1.0])
def test_engine_dc_line_of_an_unbalanced_custom_pair(k):
    # with B d a whole number the arms' fields are uncorrelated, R0(d) = 0, so the
    # mean intensity is P (sum |M1_n|^2 + k^2 sum |M2_n|^2) and the DC line its square
    base = reference_link()
    m1, m2 = {-1: 0.1j, 0: 0.9, 1: 0.2}, {0: 0.7, 1: 0.1, 2: 0.05j}
    b = base.spectrum.b
    link = replace(
        base,
        scheme=SchemeConfig(kind=ModulationKind.CUSTOM, f_m=base.scheme.f_m, m1_coeffs=m1, m2_coeffs=m2),
        interferometer=replace(base.interferometer, delay_d=round(b * base.delay) / b, arm_ratio_k=k),
    )
    p = link.spectrum.total_power()
    assert abs(link.spectrum.autocorrelation(link.delay)) <= 1e-15 * p
    power = p * (sum(abs(c) ** 2 for c in m1.values()) + k**2 * sum(abs(c) ** 2 for c in m2.values()))
    decomp = general_intensity_psd(link, np.linspace(-20e9, 20e9, 9))
    assert decomp.line_power_at(0.0) == pytest.approx(power**2, rel=1e-12)


def test_engine_tabulated_consistent_with_rectangular():
    link = reference_link(scheme_kind="ssb", gamma=0.39)
    tab_link = link.with_spectrum(tabulate(link.spectrum, 4097))
    grid = np.linspace(-420e9, 420e9, 257)
    rect = general_intensity_psd(link, grid)
    tab = general_intensity_psd(tab_link, grid)
    scale = rect.continuum.max()
    assert np.max(np.abs(rect.continuum - tab.continuum)) < 5e-3 * scale
    for f, w in zip(rect.line_frequencies, rect.line_powers):
        assert tab.line_power_at(f) == pytest.approx(w, rel=5e-3, abs=5e-3 * w + 1e-6)


def test_fundamental_line_power_matches_closed_forms():
    from ibosmpf.closed_forms import signal_power_dsb

    dsb = reference_link(scheme_kind="dsb")
    for f_m in (3e9, 9e9):
        assert fundamental_line_power(dsb, f_m) == pytest.approx(
            signal_power_dsb(dsb, f_m), rel=1e-9
        )
    pm = reference_link(scheme_kind="pm", gamma=0.41)
    for f_m in (4e9, 10e9):
        assert fundamental_line_power(pm, f_m) == pytest.approx(
            signal_power_pm(pm, f_m), rel=1e-9
        )


def test_engine_scale_invariant_shape():
    grid = np.linspace(-430e9, 430e9, 257)
    base = general_intensity_psd(reference_link(n0=1.0), grid)
    scaled = general_intensity_psd(reference_link(n0=10.0), grid)
    np.testing.assert_allclose(scaled.continuum, 100.0 * base.continuum, rtol=1e-9)
    np.testing.assert_allclose(scaled.line_powers, 100.0 * base.line_powers, rtol=1e-9)


def test_engine_matches_benchmark_references():
    # the benchmark's five engine links on its 1024-point grid, against the
    # recorded reference outputs (read, never written)
    refs_path = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "full.json"
    refs = json.loads(refs_path.read_text(encoding="utf-8"))
    ref = reference_link()
    links = {
        "ssb": ref,
        "dsb": reference_link(scheme_kind="dsb", gamma=0.39),
        "pm": reference_link(scheme_kind="pm", gamma=0.41),
        "custom": replace(ref, scheme=polarization_modulator_scheme(0.41, ref.scheme.f_m)),
        "tabulated": ref.with_spectrum(tabulate(ref.spectrum, 4096)),
    }
    grid = np.linspace(-440e9, 440e9, 1024)
    for label, link in links.items():
        decomp = general_intensity_psd(link, grid)
        for part in ("continuum", "line_frequencies", "line_powers"):
            want = np.asarray(refs[f"psd.{label}.{part}"], dtype=float)
            got = getattr(decomp, part)
            assert got.shape == want.shape, (label, part)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (label, part)
