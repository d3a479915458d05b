"""RF modulation schemes as finite Fourier series at one fundamental.

A modulation function m(t) = sum_n M_n exp(j n 2 pi f_m t) is stored by its
coefficient map.  Scheme constructors cover the small-signal double- and
single-sideband amplitude cases, truncated-Bessel phase modulation, the
unmodulated carrier, and arbitrary custom coefficient pairs for both arms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional

import numpy as np

from .errors import ConfigurationError

MAX_HARMONIC_ORDER = 8
_SMALL_SIGNAL_GAMMA_MAX = 1.5


class ModulationKind(str, Enum):
    DSB = "dsb"
    SSB = "ssb"
    PM = "pm"
    UNMODULATED = "unmodulated"
    CUSTOM = "custom"


@dataclass(frozen=True)
class HarmonicModulation:
    """Finite Fourier series m(t) = sum_n M_n exp(j n 2 pi f_m t)."""

    f_m: float
    coeffs: Mapping[int, complex]

    def __post_init__(self):
        if not (math.isfinite(self.f_m) and self.f_m >= 0):
            raise ConfigurationError("modulation fundamental must be finite and >= 0")
        cleaned = {}
        for n, c in dict(self.coeffs).items():
            n = int(n)
            if abs(n) > MAX_HARMONIC_ORDER:
                raise ConfigurationError(
                    f"harmonic order {n} exceeds the supported {MAX_HARMONIC_ORDER}"
                )
            c = complex(c)
            if c != 0:
                cleaned[n] = c
        object.__setattr__(self, "coeffs", cleaned)

    def coefficient(self, n: int) -> complex:
        return self.coeffs.get(n, 0.0 + 0.0j)

    def orders(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    def evaluate(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for n, c in self.coeffs.items():
            out += c if n == 0 else c * _phasor(2.0 * np.pi * n * self.f_m * t)
        return out


def _phasor(angle: np.ndarray) -> np.ndarray:
    """exp(j angle) for a real angle array, at about half the cost of complex ``np.exp``."""
    out = np.empty(np.shape(angle), dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def bessel_j01(gamma) -> tuple[np.ndarray, np.ndarray]:
    """J0 and J1 at each gamma: Fourier coefficients of exp(j gamma sin theta) (Jacobi-Anger).

    The trapezoid rule on N = 64 + 2 ceil(max|gamma|) points of one period aliases only
    J_{n +- N}, below rounding; J0 = 1 - mean(2 sin^2(phase / 2)) keeps its small-gamma deficit to full precision.
    """
    gamma = np.asarray(gamma, dtype=float)
    points = 64 + 2 * math.ceil(np.max(np.abs(gamma), initial=0.0))
    sine = np.sin(2.0 * np.pi / points * np.arange(points))
    phase = gamma[..., None] * sine
    half = np.sin(0.5 * phase)
    return 1.0 - 2.0 * (half * half).mean(axis=-1), (np.sin(phase) * sine).mean(axis=-1)


def cyclic_autocorrelation(m: HarmonicModulation, s: int, v) -> complex:
    """s-th cyclic autocorrelation: sum_q M_q M*_{q-s} exp(j 2 pi f_m q v)."""
    out = cyclic_series(m.coeffs, s, m.f_m * np.asarray(v, dtype=float))
    return out if out.ndim else complex(out)


def cyclic_series(coeffs: Mapping[int, complex], s: int, x) -> np.ndarray:
    """sum_q M_q M*_{q-s} exp(j 2 pi q x) over a coefficient map, x = f_m v.

    Each M_q may be an array over operating points; it broadcasts against x.
    """
    out = np.zeros(np.shape(x), dtype=complex)
    for q, c in coeffs.items():
        if q - s in coeffs:
            out = out + c * np.conj(coeffs[q - s]) * np.exp(2j * np.pi * q * x)
    return out


def cyclic_orders(coeffs: Mapping[int, complex]) -> tuple[int, ...]:
    """Cyclic frequencies s with a nonzero autocorrelation, from a coefficient map."""
    return tuple(sorted({q - p for q in coeffs for p in coeffs}))


@dataclass(frozen=True)
class SchemeConfig:
    """Modulation scheme selector with its small-signal index."""

    kind: ModulationKind
    f_m: float
    gamma: float = 0.0
    m1_coeffs: Optional[Mapping[int, complex]] = None
    m2_coeffs: Optional[Mapping[int, complex]] = None

    def __post_init__(self):
        kind = ModulationKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if self.gamma < 0 or not math.isfinite(self.gamma):
            raise ConfigurationError("gamma must be finite and >= 0")
        if kind in (ModulationKind.DSB, ModulationKind.SSB, ModulationKind.PM):
            if self.gamma > _SMALL_SIGNAL_GAMMA_MAX:
                raise ConfigurationError(
                    "small-signal constructors require gamma <= "
                    f"{_SMALL_SIGNAL_GAMMA_MAX}"
                )
        if kind is ModulationKind.CUSTOM and self.m1_coeffs is None:
            raise ConfigurationError("custom scheme needs m1_coeffs")


def build_scheme(cfg: SchemeConfig) -> tuple[HarmonicModulation, HarmonicModulation]:
    """Modulation functions (m1, m2) of the undelayed and the delayed arm.

    Shared-modulator kinds return one object for both arms.  Single-arm
    kinds return a constant second arm, whose constant carries any extra
    amplitude of an equivalent model (the polarization-modulator and
    dual-input equivalents).  The splitter's own delayed-arm amplitude is
    the link's ``interferometer.arm_ratio_k``, not part of the scheme.
    """
    gamma = cfg.gamma
    f_m = cfg.f_m
    kind = cfg.kind
    if kind is ModulationKind.UNMODULATED:
        m = HarmonicModulation(f_m, {0: 1.0})
        return m, m
    if kind is ModulationKind.DSB:
        m = HarmonicModulation(f_m, {-1: gamma / 2.0, 0: 1.0, 1: gamma / 2.0})
        return m, m
    if kind is ModulationKind.SSB:
        m = HarmonicModulation(f_m, {0: 1.0, 1: gamma / 2.0})
        return m, m
    if kind is ModulationKind.PM:
        j0, j1 = map(float, bessel_j01(gamma))
        m1 = HarmonicModulation(f_m, {-1: -j1, 0: j0, 1: j1})
        m2 = HarmonicModulation(f_m, {0: 1.0})
        return m1, m2
    if kind is ModulationKind.CUSTOM:
        m1 = HarmonicModulation(f_m, cfg.m1_coeffs)
        m2 = HarmonicModulation(f_m, cfg.m2_coeffs if cfg.m2_coeffs is not None else {0: 1.0})
        return m1, m2
    raise ConfigurationError(f"unknown modulation kind {cfg.kind!r}")


def polarization_modulator_scheme(gamma: float, f_m: float) -> SchemeConfig:
    """Single-arm equivalent of the polarization-modulator setup."""
    j0, j1 = map(float, bessel_j01(gamma))
    return SchemeConfig(
        kind=ModulationKind.CUSTOM,
        f_m=f_m,
        gamma=gamma,
        m1_coeffs={-1: 1j * j1, 1: 1j * j1},
        m2_coeffs={0: j0},
    )


def dual_input_mzm_scheme(gamma: float, f_m: float) -> SchemeConfig:
    """Single-arm equivalent of the quadrature-biased dual-input modulator."""
    j0, j1 = map(float, bessel_j01(gamma))
    return SchemeConfig(
        kind=ModulationKind.CUSTOM,
        f_m=f_m,
        gamma=gamma,
        m1_coeffs={-1: j1, 1: j1},
        m2_coeffs={0: 1j * j0},
    )


def gamma_from_csr(csr_db: float) -> float:
    """Modulation index from a carrier-to-sideband ratio in dB."""
    if not math.isfinite(csr_db):
        raise ConfigurationError("CSR must be finite")
    return 2.0 * 10.0 ** (-csr_db / 20.0)


def csr_from_gamma(gamma: float) -> float:
    """Carrier-to-sideband ratio in dB from the modulation index."""
    if not 0 < gamma < math.inf:
        raise ConfigurationError("gamma must be positive and finite to define a CSR")
    return 20.0 * math.log10(2.0 / gamma)
