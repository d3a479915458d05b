"""Single-bandpass microwave photonic filter analysis toolkit.

Analytic signal/noise spectra and SNR for interferometric filters driven by
incoherent broadband light, a general fourth-moment PSD evaluator, an
independent frequency-domain cross-check, an oscillator phase-noise model,
and a Monte-Carlo stochastic-field oracle that validates all of them.
"""

__version__ = "0.1.0"

from .closed_forms import (
    SnrReport,
    dsb_fading_null_frequency,
    frequency_response_sweep,
    fringed_noise_spectrum,
    interference_kernel,
    noise_figure,
    noise_psd_shared,
    passband_shape,
    shared_modulator_decomposition,
    signal_power_dsb,
    signal_power_ssb,
    snr_ssb,
    snr_sweep,
)
from .config import LinkConfig, reference_link
from .decomposition import SpectralDecomposition
from .engine import general_intensity_psd
from .errors import ConfigurationError, DomainError, NoPassbandError
from .freq_domain import freq_domain_noise_psd, freq_domain_signal_power
from .geometry import (
    DispersionSpec,
    InterferometerSpec,
    center_frequency,
    delay_for_center,
    optical_fsr,
    phi_from_dispersion,
)
from .modulation import (
    HarmonicModulation,
    ModulationKind,
    SchemeConfig,
    build_scheme,
    csr_from_gamma,
    cyclic_autocorrelation,
    gamma_from_csr,
)
from .montecarlo import (
    McEstimate,
    SimulationGrid,
    WelchConfig,
    estimate_psd,
    estimate_snr,
    propagate,
    synthesize_field,
)
from .oeo import noise_to_signal_ratio, oeo_phase_noise
from .pm import signal_power_pm, snr_pm
from .spectrum import OpticalSpectrum, RectangularSpectrum, TabulatedSpectrum

__all__ = [
    "ConfigurationError",
    "DispersionSpec",
    "DomainError",
    "HarmonicModulation",
    "InterferometerSpec",
    "LinkConfig",
    "McEstimate",
    "ModulationKind",
    "NoPassbandError",
    "OpticalSpectrum",
    "RectangularSpectrum",
    "SchemeConfig",
    "SimulationGrid",
    "SnrReport",
    "SpectralDecomposition",
    "TabulatedSpectrum",
    "WelchConfig",
    "build_scheme",
    "center_frequency",
    "csr_from_gamma",
    "cyclic_autocorrelation",
    "delay_for_center",
    "dsb_fading_null_frequency",
    "estimate_psd",
    "estimate_snr",
    "freq_domain_noise_psd",
    "freq_domain_signal_power",
    "frequency_response_sweep",
    "fringed_noise_spectrum",
    "gamma_from_csr",
    "general_intensity_psd",
    "interference_kernel",
    "noise_figure",
    "noise_psd_shared",
    "noise_to_signal_ratio",
    "oeo_phase_noise",
    "optical_fsr",
    "passband_shape",
    "phi_from_dispersion",
    "propagate",
    "reference_link",
    "shared_modulator_decomposition",
    "signal_power_dsb",
    "signal_power_pm",
    "signal_power_ssb",
    "snr_pm",
    "snr_ssb",
    "snr_sweep",
    "synthesize_field",
]
