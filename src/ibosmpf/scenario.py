"""Scenario files: YAML with mandatory unit suffixes on dimensioned values.

A scenario describes one link in engineering units, at most one sweep axis,
an optional Monte-Carlo block, optional expectations for ``--compare``, and
output settings.  Ambiguous quantities (bare numbers where a unit is
required) are rejected rather than guessed, and so is any key the loader
does not read, at the top level or inside a section.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional

import yaml

from .config import LinkConfig
from .errors import ConfigurationError
from .geometry import (
    DispersionSpec,
    InterferometerSpec,
    center_frequency,
    delay_for_center,
)
from .modulation import ModulationKind, SchemeConfig, gamma_from_csr
from .spectrum import RectangularSpectrum
from .units import dbm_to_watts, optical_bandwidth_to_hz, wavelength_to_frequency

_TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12, "fs": 1e-15}
_FREQ_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9, "thz": 1e12}
_LENGTH_UNITS = {"m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9}
_DISPERSION_UNITS = {"ps/nm": 1e-12 / 1e-9, "s/m": 1.0}
_GDD_UNITS = {"s^2": 1.0, "s2": 1.0, "ps^2": 1e-24, "ps2": 1e-24}
_PSD_UNITS = {"w/hz": 1.0, "mw/hz": 1e-3}


def _parse_quantity(field_name: str, raw: Any, units: dict[str, float]) -> float:
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        raise ConfigurationError(
            f"field {field_name}: unit suffix required (got bare number {raw!r})"
        )
    if not isinstance(raw, str):
        raise ConfigurationError(f"field {field_name}: expected 'value unit' string")
    parts = raw.strip().split()
    if len(parts) != 2:
        raise ConfigurationError(f"field {field_name}: expected 'value unit', got {raw!r}")
    try:
        value = float(parts[0])
    except ValueError as exc:
        raise ConfigurationError(f"field {field_name}: bad number in {raw!r}") from exc
    unit = parts[1].lower()
    if unit not in units:
        raise ConfigurationError(
            f"field {field_name}: unknown unit {parts[1]!r} (allowed: {sorted(units)})"
        )
    if not math.isfinite(value):
        raise ConfigurationError(f"field {field_name}: non-finite value")
    return value * units[unit]


def parse_time(name: str, raw: Any) -> float:
    return _parse_quantity(name, raw, _TIME_UNITS)


def parse_frequency(name: str, raw: Any) -> float:
    return _parse_quantity(name, raw, _FREQ_UNITS)


def parse_power_w(name: str, raw: Any) -> float:
    if isinstance(raw, str) and raw.strip().lower().endswith("dbm"):
        value = raw.strip()[:-3].strip()
        try:
            return dbm_to_watts(float(value))
        except ValueError as exc:
            raise ConfigurationError(f"field {name}: bad dBm value {raw!r}") from exc
    return _parse_quantity(name, raw, {"w": 1.0, "mw": 1e-3, "uw": 1e-6})


def parse_db(name: str, raw: Any) -> float:
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        raise ConfigurationError(f"field {name}: unit suffix required, write e.g. '13.2 dB'")
    parts = str(raw).strip().split()
    if len(parts) != 2 or parts[1].lower() != "db":
        raise ConfigurationError(f"field {name}: expected 'value dB'")
    try:
        return float(parts[0])
    except ValueError as exc:
        raise ConfigurationError(f"field {name}: bad number in {raw!r}") from exc


def _parse_bandwidth(name: str, raw: Any, wavelength: float) -> float:
    """Bandwidth in Hz from either a wavelength span or a frequency span."""
    if isinstance(raw, str):
        unit = raw.strip().split()[-1].lower()
        if unit in _LENGTH_UNITS:
            span_m = _parse_quantity(name, raw, _LENGTH_UNITS)
            return optical_bandwidth_to_hz(span_m, wavelength)
    return parse_frequency(name, raw)


@dataclass
class SweepSpec:
    variable: str
    start: float
    stop: float
    points: int

    def values(self):
        import numpy as np

        if self.points == 1:
            return np.array([self.start])
        return np.linspace(self.start, self.stop, self.points)


@dataclass
class McSpec:
    dt: float
    n_samples: int
    realizations: int
    seed: int


@dataclass
class OeoSpec:
    tau: float
    delta: Optional[float] = None  # per-hertz noise-to-signal ratio [s]
    from_link: bool = False
    f_max: Optional[float] = None
    points: int = 2001


@dataclass
class Scenario:
    link: LinkConfig
    wavelength: float
    sweep: Optional[SweepSpec] = None
    mc: Optional[McSpec] = None
    oeo: Optional[OeoSpec] = None
    rf_input_power_w: Optional[float] = None
    expect: dict = field(default_factory=dict)
    output_path: Optional[str] = None
    output_format: str = "csv"
    raw_text: str = ""


_SWEEP_UNIT_KIND = {
    "f_m": "frequency",
    "f_c": "frequency",
    "detuning": "frequency",
    "f_offset": "frequency",
    "gamma": "plain",
    "bandwidth": "bandwidth",
}


# keys each level of a scenario may hold; anything else is rejected
_TOP_KEYS = ("link", "sweep", "mc", "oeo", "rf_input_power", "expect", "outputs")
_SECTION_KEYS = {
    "link": (
        "scheme", "center_wavelength", "bandwidth", "psd_level", "gdd", "dispersion",
        "delay", "center_frequency", "gamma", "csr", "rf_frequency",
    ),
    "sweep": ("variable", "start", "stop", "points"),
    "mc": ("dt", "samples", "realizations", "seed"),
    "oeo": ("tau", "delta", "from_link", "f_max", "points"),
    "expect": ("snr_db_hz",),
    "outputs": ("path", "format"),
}


def _reject_unknown(raw: dict, allowed, prefix: str) -> None:
    for key in raw:
        if key not in allowed:
            raise ConfigurationError(
                f"field {prefix}{key}: unknown key (allowed: {', '.join(allowed)})"
            )


def _section(data: dict, name: str) -> Optional[dict]:
    """The mapping under ``name`` (None if absent, {} if empty), keys checked."""
    if name not in data:
        return None
    raw = data[name]
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigurationError(f"field {name}: must be a mapping")
    _reject_unknown(raw, _SECTION_KEYS[name], f"{name}.")
    return raw


def _build_link(data: dict) -> tuple[LinkConfig, float]:
    raw = _section(data, "link")
    if raw is None:
        raise ConfigurationError("field link: missing section")

    kind_name = str(raw.get("scheme", "ssb")).lower()
    try:
        kind = ModulationKind(kind_name)
    except ValueError as exc:
        raise ConfigurationError(f"field link.scheme: unknown scheme {kind_name!r}") from exc

    wavelength = _parse_quantity(
        "link.center_wavelength", raw.get("center_wavelength", "1550 nm"), _LENGTH_UNITS
    )
    bandwidth_hz = _parse_bandwidth("link.bandwidth", raw["bandwidth"], wavelength) if "bandwidth" in raw else None
    if bandwidth_hz is None:
        raise ConfigurationError("field link.bandwidth: missing")
    psd_level = 1.0
    if "psd_level" in raw:
        psd_level = _parse_quantity("link.psd_level", raw["psd_level"], _PSD_UNITS)

    if "gdd" in raw and "dispersion" in raw:
        raise ConfigurationError("field link: give either dispersion or gdd, not both")
    if "gdd" in raw:
        dispersion = DispersionSpec(phi=_parse_quantity("link.gdd", raw["gdd"], _GDD_UNITS))
    elif "dispersion" in raw:
        d_total = _parse_quantity("link.dispersion", raw["dispersion"], _DISPERSION_UNITS)
        dispersion = DispersionSpec.from_dispersion_parameter(d_total, wavelength)
    else:
        raise ConfigurationError("field link.dispersion: missing (or provide link.gdd)")

    if "delay" in raw and "center_frequency" in raw:
        raise ConfigurationError("field link: give either delay or center_frequency")
    if "delay" in raw:
        delay = parse_time("link.delay", raw["delay"])
    elif "center_frequency" in raw:
        f_c = parse_frequency("link.center_frequency", raw["center_frequency"])
        delay = delay_for_center(f_c, dispersion.phi)
    else:
        raise ConfigurationError("field link.delay: missing (or provide link.center_frequency)")

    if "gamma" in raw and "csr" in raw:
        raise ConfigurationError("field link: give either gamma or csr")
    if "csr" in raw:
        gamma = gamma_from_csr(parse_db("link.csr", raw["csr"]))
    else:
        gamma = raw.get("gamma", 0.0)
        if not isinstance(gamma, (int, float)) or isinstance(gamma, bool):
            raise ConfigurationError("field link.gamma: must be a plain number")

    f0 = wavelength_to_frequency(wavelength)
    spectrum = RectangularSpectrum(n0=psd_level, b=bandwidth_hz, carrier_f0=f0)
    interferometer = InterferometerSpec(delay_d=delay, carrier_f0=f0)

    if "rf_frequency" in raw:
        f_m = parse_frequency("link.rf_frequency", raw["rf_frequency"])
    else:
        f_m = center_frequency(delay, dispersion.phi) if dispersion.phi != 0 else 0.0
    scheme = SchemeConfig(kind=kind, f_m=f_m, gamma=float(gamma))
    link = LinkConfig(
        spectrum=spectrum,
        interferometer=interferometer,
        dispersion=dispersion,
        scheme=scheme,
    )
    return link, wavelength


def _build_sweep(data: dict, wavelength: float) -> Optional[SweepSpec]:
    raw = _section(data, "sweep")
    if raw is None:
        return None
    for key in ("variable", "start", "stop", "points"):
        if key not in raw:
            raise ConfigurationError(f"field sweep.{key}: missing")
    variable = str(raw["variable"])
    if variable not in _SWEEP_UNIT_KIND:
        raise ConfigurationError(
            f"field sweep.variable: unknown axis {variable!r} (allowed: {sorted(_SWEEP_UNIT_KIND)})"
        )
    kind = _SWEEP_UNIT_KIND[variable]
    if kind == "frequency":
        start = parse_frequency("sweep.start", raw["start"])
        stop = parse_frequency("sweep.stop", raw["stop"])
    elif kind == "bandwidth":
        start = _parse_bandwidth("sweep.start", raw["start"], wavelength)
        stop = _parse_bandwidth("sweep.stop", raw["stop"], wavelength)
    else:
        start, stop = raw["start"], raw["stop"]
        for name, value in (("start", start), ("stop", stop)):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigurationError(f"field sweep.{name}: must be a plain number")
    points = raw["points"]
    if not isinstance(points, int) or points < 1:
        raise ConfigurationError("field sweep.points: must be a positive integer")
    return SweepSpec(variable=variable, start=float(start), stop=float(stop), points=points)


def _build_mc(data: dict) -> Optional[McSpec]:
    raw = _section(data, "mc")
    if raw is None:
        return None
    dt = parse_time("mc.dt", raw.get("dt", "0.25 ps"))
    n_samples = raw.get("samples", 2**20)
    realizations = raw.get("realizations", 64)
    seed = raw.get("seed", 0)
    for name, value in (("samples", n_samples), ("realizations", realizations), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigurationError(f"field mc.{name}: must be an integer")
    return McSpec(dt=dt, n_samples=n_samples, realizations=realizations, seed=seed)


def _build_oeo(data: dict) -> Optional[OeoSpec]:
    raw = _section(data, "oeo")
    if raw is None:
        return None
    if "tau" not in raw:
        raise ConfigurationError("field oeo.tau: missing")
    tau = parse_time("oeo.tau", raw["tau"])
    delta = None
    if "delta" in raw:
        delta = parse_time("oeo.delta", raw["delta"])
    from_link = bool(raw.get("from_link", False))
    if delta is None and not from_link:
        raise ConfigurationError("field oeo: provide delta or from_link: true")
    f_max = parse_frequency("oeo.f_max", raw["f_max"]) if "f_max" in raw else None
    points = raw.get("points", 2001)
    if not isinstance(points, int) or points < 2:
        raise ConfigurationError("field oeo.points: must be an integer >= 2")
    return OeoSpec(tau=tau, delta=delta, from_link=from_link, f_max=f_max, points=points)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"scenario parse error: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError("scenario must be a mapping")
    _reject_unknown(data, _TOP_KEYS, "")
    link, wavelength = _build_link(data)
    sweep = _build_sweep(data, wavelength)
    mc = _build_mc(data)
    oeo = _build_oeo(data)
    rf_power = None
    if "rf_input_power" in data:
        rf_power = parse_power_w("rf_input_power", data["rf_input_power"])
    expect = _section(data, "expect") or {}
    if "snr_db_hz" in expect:
        value = expect["snr_db_hz"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigurationError("field expect.snr_db_hz: must be a plain number")
    outputs = _section(data, "outputs") or {}
    output_path = outputs.get("path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigurationError("field outputs.path: must be a string")
    output_format = str(outputs.get("format", "csv")).lower()
    if output_format not in ("csv", "json"):
        raise ConfigurationError("field outputs.format: must be csv or json")
    return Scenario(
        link=link,
        wavelength=wavelength,
        sweep=sweep,
        mc=mc,
        oeo=oeo,
        rf_input_power_w=rf_power,
        expect=expect,
        output_path=output_path,
        output_format=output_format,
        raw_text=text,
    )
