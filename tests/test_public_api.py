"""Public names that callers and the perfbench harness reach by attribute.

perfbench/tracing.py wraps these functions and methods by name at run time,
so deleting or renaming one fails the traced benchmark with AttributeError.
"""

import importlib

import pytest

import ibosmpf

MODULE_FUNCTIONS = [
    ("closed_forms", "frequency_response_sweep"),
    ("closed_forms", "interference_kernel"),
    ("closed_forms", "noise_psd_shared"),
    ("closed_forms", "shared_modulator_decomposition"),
    ("closed_forms", "signal_power_ssb"),
    ("closed_forms", "snr_ssb"),
    ("engine", "fundamental_line_power"),
    ("engine", "general_intensity_psd"),
    ("pm", "pm_continuum"),
    ("pm", "pm_continuum_grouped"),
    ("pm", "pm_decomposition"),
    ("pm", "pm_line_weights"),
    ("pm", "snr_pm"),
    ("_quad", "band_correlation"),
    ("freq_domain", "freq_domain_noise_psd"),
    ("freq_domain", "freq_domain_signal_power"),
    ("montecarlo", "estimate_psd"),
    ("montecarlo", "estimate_snr"),
    ("montecarlo", "extract_line"),
    ("montecarlo", "floor_density"),
    ("montecarlo", "propagate"),
    ("montecarlo", "realization_rng"),
    ("montecarlo", "synthesize_field"),
    ("modulation", "polarization_modulator_scheme"),
    ("oeo", "oeo_phase_noise"),
    ("scenario", "load_scenario"),
    ("spectrum", "tabulate"),
    ("cli", "main"),
]

CLASS_METHODS = [
    ("modulation", "HarmonicModulation", "evaluate"),
    ("spectrum", "RectangularSpectrum", "psd"),
    ("spectrum", "RectangularSpectrum", "autocorrelation"),
    ("spectrum", "RectangularSpectrum", "cross_spectrum"),
    ("spectrum", "TabulatedSpectrum", "psd"),
    ("spectrum", "TabulatedSpectrum", "autocorrelation"),
    ("spectrum", "TabulatedSpectrum", "cross_spectrum"),
]


@pytest.mark.parametrize("name", ibosmpf.__all__)
def test_all_names_resolve(name):
    assert getattr(ibosmpf, name) is not None


@pytest.mark.parametrize("module,name", MODULE_FUNCTIONS)
def test_module_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"ibosmpf.{module}"), name))


@pytest.mark.parametrize("module,cls,method", CLASS_METHODS)
def test_class_method_defined(module, cls, method):
    # defined on the class itself, where a wrapper is installed
    assert callable(vars(getattr(importlib.import_module(f"ibosmpf.{module}"), cls))[method])
