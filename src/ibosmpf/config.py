"""Top-level link configuration tying spectrum, geometry and scheme together."""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .errors import ConfigurationError, NoPassbandError
from .geometry import (
    DispersionSpec,
    InterferometerSpec,
    center_frequency,
    delay_for_center,
)
from .modulation import ModulationKind, SchemeConfig, build_scheme
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

    def arms(self) -> tuple[dict, dict]:
        """Coefficient maps {n: M_n} of the undelayed and the delayed arm (see ``build_scheme``)."""
        m1, m2 = build_scheme(self.scheme)
        return m1.coeffs, m2.coeffs

    def with_delay_for_center(self, f_c: float) -> "LinkConfig":
        d = delay_for_center(f_c, self.phi)
        return replace(self, interferometer=replace(self.interferometer, delay_d=d))

    def with_modulation_frequency(self, f_m: float) -> "LinkConfig":
        return replace(self, scheme=replace(self.scheme, f_m=f_m))

    def with_spectrum(self, spectrum: OpticalSpectrum) -> "LinkConfig":
        return replace(self, spectrum=spectrum)


class LinkBatch:
    """Operating points that the closed forms evaluate in one pass, each at its passband center.

    The points share the dispersion, the splitter and the scheme kind; the
    caller groups them so.  The batch reads like a :class:`LinkConfig` on
    ``spectrum`` (for the SNR, the points' unit-PSD copy) whose ``delay``,
    ``carrier_phase``, ``scheme.f_m`` and ``scheme.gamma`` are arrays over
    its points, with f_m = d / (2 pi phi), and whose :meth:`arms`
    coefficients are arrays too.
    """

    def __init__(self, links, spectrum: OpticalSpectrum):
        first = links[0]
        self.spectrum = spectrum
        self.phi = first.phi
        self.interferometer = first.interferometer  # its splitter; not its delay or carrier
        self.delay = np.array([link.delay for link in links])
        self.carrier_phase = np.array([link.carrier_phase for link in links])
        self.scheme = SimpleNamespace(
            kind=first.scheme.kind,
            f_m=self.delay / (2.0 * np.pi * self.phi),  # center_frequency's expression
            gamma=np.array([link.scheme.gamma for link in links]),
        )
        self._schemes = tuple(link.scheme for link in links)
        self._arms = None

    require_balanced_arms = LinkConfig.require_balanced_arms

    def arms(self) -> tuple[dict, dict]:
        """Both arms' coefficient maps, each M_n an array over the points (0 where a point lacks order n)."""
        if self._arms is None:  # the coefficients do not depend on f_m
            pairs = [build_scheme(scheme) for scheme in self._schemes]
            self._arms = tuple(
                {
                    n: np.array([pair[i].coefficient(n) for pair in pairs])
                    for n in sorted({n for pair in pairs for n in pair[i].coeffs})
                }
                for i in (0, 1)
            )
        return self._arms


def reference_link(
    scheme_kind: ModulationKind | str = ModulationKind.SSB,
    bandwidth_nm: float = 3.2,
    gamma: float = 0.39,
    delay_s: float = DEFAULT_DELAY,
    n0: float = 1.0,
    f_m: float | None = None,
) -> LinkConfig:
    """Bench operating point used throughout the tests and the benchmark.

    Defaults give the 10 GHz passband configuration: 3.2 nm rectangular
    slice at 1550 nm, -989 ps/nm accumulated dispersion, 79.4 ps delay.
    """
    b_hz = optical_bandwidth_to_hz(bandwidth_nm * 1e-9, DEFAULT_WAVELENGTH)
    f0 = wavelength_to_frequency(DEFAULT_WAVELENGTH)
    spectrum = RectangularSpectrum(n0=n0, b=b_hz, carrier_f0=f0)
    dispersion = DispersionSpec.from_dispersion_parameter(DEFAULT_DISPERSION, DEFAULT_WAVELENGTH)
    interferometer = InterferometerSpec(delay_d=delay_s, carrier_f0=f0)
    if f_m is None:
        f_m = center_frequency(delay_s, dispersion.phi)
    scheme = SchemeConfig(kind=ModulationKind(scheme_kind), f_m=f_m, gamma=gamma)
    return LinkConfig(spectrum=spectrum, interferometer=interferometer, dispersion=dispersion, scheme=scheme)
