"""Top-level link configuration tying spectrum, geometry and scheme together."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConfigurationError, NoPassbandError
from .geometry import (
    DispersionSpec,
    InterferometerSpec,
    center_frequency,
    delay_for_center,
)
from .modulation import ModulationKind, SchemeConfig
from .spectrum import OpticalSpectrum, RectangularSpectrum
from .units import optical_bandwidth_to_hz, wavelength_to_frequency

# Inferred experimental defaults; recorded as configuration conventions,
# not measured values.
DEFAULT_WAVELENGTH = 1550e-9  # m
DEFAULT_DISPERSION = -989e-12 / 1e-9  # s/m, dispersion-compensating module
DEFAULT_DELAY = 79.4e-12  # s


@dataclass(frozen=True)
class LinkConfig:
    """Complete description of one filter configuration."""

    spectrum: OpticalSpectrum
    interferometer: InterferometerSpec
    dispersion: DispersionSpec
    scheme: SchemeConfig

    @property
    def delay(self) -> float:
        return self.interferometer.delay_d

    @property
    def phi(self) -> float:
        return self.dispersion.phi

    @property
    def carrier_phase(self) -> float:
        return self.interferometer.carrier_phase

    def passband_center(self) -> float:
        """Positive passband center; raises if the geometry has none."""
        f_c = center_frequency(self.delay, self.phi)
        if f_c <= 0:
            raise NoPassbandError("configuration has no positive-frequency passband")
        return f_c

    def require_balanced_arms(self, what: str) -> None:
        """Raise :class:`ConfigurationError` unless the splitter is balanced.

        ``what`` names the form that assumes ``interferometer.arm_ratio_k``
        = 1 (to 1e-12): the closed forms and the frequency-domain route.
        """
        if abs(self.interferometer.arm_ratio_k - 1.0) > 1e-12:
            raise ConfigurationError(
                f"{what} assumes balanced arms; interferometer.arm_ratio_k is "
                f"{complex(self.interferometer.arm_ratio_k):.6g}"
            )

    def with_delay_for_center(self, f_c: float) -> "LinkConfig":
        d = delay_for_center(f_c, self.phi)
        return replace(self, interferometer=replace(self.interferometer, delay_d=d))

    def with_modulation_frequency(self, f_m: float) -> "LinkConfig":
        return replace(self, scheme=replace(self.scheme, f_m=f_m))

    def with_spectrum(self, spectrum: OpticalSpectrum) -> "LinkConfig":
        return replace(self, spectrum=spectrum)


def reference_link(
    scheme_kind: ModulationKind | str = ModulationKind.SSB,
    bandwidth_nm: float = 3.2,
    gamma: float = 0.39,
    delay_s: float = DEFAULT_DELAY,
    dispersion_s_per_m: float = DEFAULT_DISPERSION,
    wavelength_m: float = DEFAULT_WAVELENGTH,
    n0: float = 1.0,
    f_m: float | None = None,
) -> LinkConfig:
    """Bench operating point used throughout the tests and the benchmark.

    Defaults give the 10 GHz passband configuration: 3.2 nm rectangular
    slice at 1550 nm, -989 ps/nm accumulated dispersion, 79.4 ps delay.
    """
    b_hz = optical_bandwidth_to_hz(bandwidth_nm * 1e-9, wavelength_m)
    f0 = wavelength_to_frequency(wavelength_m)
    spectrum = RectangularSpectrum(n0=n0, b=b_hz, carrier_f0=f0)
    dispersion = DispersionSpec.from_dispersion_parameter(dispersion_s_per_m, wavelength_m)
    interferometer = InterferometerSpec(delay_d=delay_s, carrier_f0=f0)
    if f_m is None:
        f_m = center_frequency(delay_s, dispersion.phi)
    scheme = SchemeConfig(kind=ModulationKind(scheme_kind), f_m=f_m, gamma=gamma)
    return LinkConfig(
        spectrum=spectrum,
        interferometer=interferometer,
        dispersion=dispersion,
        scheme=scheme,
    )
