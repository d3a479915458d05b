"""Scenario files: YAML with mandatory unit suffixes on dimensioned values.

A scenario describes one link in engineering units, at most one sweep axis,
an optional Monte-Carlo block, optional expectations for ``--compare``, and
output settings.  ``_SCHEMA`` gives each key's kind, default and range.
Bare numbers where a unit is required, unknown keys and out-of-range values
are rejected rather than guessed, with a message naming the field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from .modulation import _SMALL_SIGNAL_GAMMA_MAX, ModulationKind, SchemeConfig, gamma_from_csr
from .montecarlo import WelchConfig
from .spectrum import RectangularSpectrum
from .units import dbm_to_watts, optical_bandwidth_to_hz, wavelength_to_frequency

# A unit table maps a lower-case unit to its SI factor, or to a conversion
# called with the number and the values of the section parsed so far.
_TIME = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12, "fs": 1e-15}
_FREQ = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9, "thz": 1e12}
_LENGTH = {"m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9}
_DISPERSION = {"ps/nm": 1e-12 / 1e-9, "s/m": 1.0}
_GDD = {"s^2": 1.0, "s2": 1.0, "ps^2": 1e-24, "ps2": 1e-24}
_PSD = {"w/hz": 1.0, "mw/hz": 1e-3}
_DB = {"db": 1.0}
_POWER = {"w": 1.0, "mw": 1e-3, "uw": 1e-6, "dbm": lambda value, seen: dbm_to_watts(value)}


def _span(factor: float):
    """A wavelength-span unit, converted to hertz at the link's center wavelength."""
    return lambda value, seen: optical_bandwidth_to_hz(value * factor, seen["center_wavelength"])


_BANDWIDTH = {**_FREQ, **{unit: _span(factor) for unit, factor in _LENGTH.items()}}

# Closed ranges; the smallest positive float as lower bound means "> 0".
_POSITIVE = (math.ulp(0.0), math.inf)
_NON_NEGATIVE = (0, math.inf)
_MAX_POINTS = 100_000

_REQUIRED = object()  # default of a key the file must give
_POW2 = object()  # kind: an integer power of two
_AXIS = object()  # kind: that of the swept axis, from SWEEP_AXES

# swept axis -> (the one command that sweeps it, kind, range of start and stop)
SWEEP_AXES = {
    "f_m": ("response", _FREQ, _NON_NEGATIVE),
    "detuning": ("passband", _FREQ, None),
    "f_offset": ("oeo", _FREQ, None),
    "gamma": ("snr", float, (_POSITIVE[0], _SMALL_SIGNAL_GAMMA_MAX)),  # an SNR needs a tone
    "f_c": ("snr", _FREQ, None),
    "bandwidth": ("snr", _BANDWIDTH, _POSITIVE),
}

# section -> key -> (kind, default, range).  A kind is a unit table (a
# 'number unit' string), a tuple of choices, float (a plain number), int,
# bool, str, _POW2 or _AXIS.  A default of None makes the key optional with
# no value; a range is a closed (low, high) pair, or None for any value.
# The one top-level scalar, rf_input_power, maps straight to its rule.
_SCHEMA = {
    "link": {
        "scheme": (("dsb", "ssb", "pm", "unmodulated"), "ssb", None),
        "center_wavelength": (_LENGTH, "1550 nm", _POSITIVE),
        "bandwidth": (_BANDWIDTH, _REQUIRED, _POSITIVE),
        "psd_level": (_PSD, "1 W/Hz", _POSITIVE),
        "gdd": (_GDD, None, None),
        "dispersion": (_DISPERSION, None, None),
        "delay": (_TIME, None, None),
        "center_frequency": (_FREQ, None, _NON_NEGATIVE),
        "gamma": (float, None, _NON_NEGATIVE),
        "csr": (_DB, None, _NON_NEGATIVE),  # below 0 dB, gamma would exceed 2
        "rf_frequency": (_FREQ, None, _NON_NEGATIVE),
    },
    "sweep": {
        "variable": (tuple(SWEEP_AXES), _REQUIRED, None),
        "start": (_AXIS, _REQUIRED, None),
        "stop": (_AXIS, _REQUIRED, None),
        "points": (int, _REQUIRED, (1, _MAX_POINTS)),
    },
    "mc": {
        "dt": (_TIME, "0.25 ps", _POSITIVE),
        "samples": (_POW2, 2**20, (WelchConfig.nperseg, 2**22)),  # at least one Welch segment
        "realizations": (int, 64, (8, 4096)),  # the fewest an ensemble estimate takes
        "seed": (int, 0, _NON_NEGATIVE),
    },
    "oeo": {
        "tau": (_TIME, _REQUIRED, _POSITIVE),
        "delta": (_TIME, None, _POSITIVE),
        "from_link": (bool, False, None),
        "f_max": (_FREQ, None, _POSITIVE),
        "points": (int, 2001, (2, _MAX_POINTS)),
    },
    "rf_input_power": (_POWER, None, _POSITIVE),
    "expect": {"snr_db_hz": (float, None, None)},
    "outputs": {"path": (str, None, None), "format": (("csv", "json"), "csv", None)},
}


def _number(where: str, raw: Any) -> float:
    """A finite plain number; strings such as '1e-3', which YAML leaves unparsed, are read too."""
    try:
        value = math.nan if isinstance(raw, bool) else float(raw)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not math.isfinite(value):
        raise ConfigurationError(f"field {where}: must be a finite plain number, got {raw!r}")
    return value


def _value(where: str, raw: Any, rule: tuple, seen: dict):
    """``raw`` parsed by the kind of ``rule`` and checked against its range."""
    kind, _, bounds = rule
    if isinstance(raw, (dict, list)):  # libyaml nests without limit: its repr could recurse past Python's
        raise ConfigurationError(f"field {where}: must be a single value, got a {type(raw).__name__}")
    if isinstance(kind, dict):
        parts = raw.split() if isinstance(raw, str) else ()
        if len(parts) != 2 or parts[1].lower() not in kind:
            raise ConfigurationError(
                f"field {where}: expected 'number unit' with a unit in {sorted(kind)}, got {raw!r}"
            )
        number, unit = _number(where, parts[0]), kind[parts[1].lower()]
        try:
            value = unit(number, seen) if callable(unit) else number * unit
        except ArithmeticError:  # overflow, or a wavelength whose square is 0
            value = math.inf
        if not math.isfinite(value):
            raise ConfigurationError(f"field {where}: {raw!r} is out of floating-point range")
    elif isinstance(kind, tuple):
        value = str(raw).lower()
        if value not in kind:
            raise ConfigurationError(f"field {where}: {raw!r} is not one of {', '.join(kind)}")
    elif kind is float:
        value = _number(where, raw)
    elif not isinstance(raw, int if kind is _POW2 else kind) or (kind is not bool and isinstance(raw, bool)):
        name = getattr(kind, "__name__", "int")
        raise ConfigurationError(f"field {where}: must be of type {name}, got {raw!r}")
    elif kind is _POW2 and raw & (raw - 1):
        raise ConfigurationError(f"field {where}: must be a power of two, got {raw!r}")
    else:
        value = raw
    if bounds is not None and not bounds[0] <= value <= bounds[1]:
        low = "(0" if bounds[0] == _POSITIVE[0] else f"[{bounds[0]}"
        raise ConfigurationError(f"field {where}: must lie in {low}, {bounds[1]}], got {raw!r}")
    return value


def _read(name: str, raw: Any, seen: dict) -> dict:
    """Section ``name`` parsed into ``seen`` by its ``_SCHEMA`` rules.

    ``raw`` is the section's mapping (None when it is empty).  Unknown keys
    are rejected, and an absent key takes its default, None if it has none.
    """
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ConfigurationError(f"field {name}: must be a mapping")
    rules = _SCHEMA[name]
    for key in raw:
        if key not in rules:
            raise ConfigurationError(f"field {name}.{key}: unknown key (allowed: {', '.join(rules)})")
    for key, rule in rules.items():
        where = f"{name}.{key}"
        if rule[0] is _AXIS:
            _, kind, bounds = SWEEP_AXES[seen["variable"]]
            rule = (kind, rule[1], bounds)
        if key in raw:
            seen[key] = _value(where, raw[key], rule, seen)
        elif rule[1] is _REQUIRED:
            raise ConfigurationError(f"field {where}: missing")
        else:
            seen[key] = None if rule[1] is None else _value(where, rule[1], rule, seen)
    return seen


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
    samples: int
    realizations: int
    seed: int


@dataclass
class OeoSpec:
    tau: float
    delta: Optional[float]  # per-hertz noise-to-signal ratio [s]
    from_link: bool
    f_max: Optional[float]
    points: int


@dataclass
class Scenario:
    link: LinkConfig
    sweep: Optional[SweepSpec]
    mc: Optional[McSpec]
    oeo: Optional[OeoSpec]
    rf_input_power_w: Optional[float]
    expect: dict
    output_path: Optional[str]
    output_format: str
    raw_text: str


def _link(s: dict) -> LinkConfig:
    """The link from its parsed section: either/or pairs, derived delay and default f_m."""
    for first, second in (("gdd", "dispersion"), ("delay", "center_frequency"), ("gamma", "csr")):
        if s[first] is not None and s[second] is not None:
            raise ConfigurationError(f"field link: give either {first} or {second}, not both")
    wavelength = s["center_wavelength"]
    if s["gdd"] is not None:
        dispersion = DispersionSpec(phi=s["gdd"])
    elif s["dispersion"] is not None:
        dispersion = DispersionSpec.from_dispersion_parameter(s["dispersion"], wavelength)
    else:
        raise ConfigurationError("field link.dispersion: missing (or provide link.gdd)")

    if s["delay"] is not None:
        delay = s["delay"]
    elif s["center_frequency"] is not None:
        delay = delay_for_center(s["center_frequency"], dispersion.phi)
    else:
        raise ConfigurationError("field link.delay: missing (or provide link.center_frequency)")
    gamma = gamma_from_csr(s["csr"]) if s["csr"] is not None else s["gamma"] or 0.0

    f_m = s["rf_frequency"]
    if f_m is None:
        f_m = center_frequency(delay, dispersion.phi) if dispersion.phi != 0 else 0.0
    try:
        scheme = SchemeConfig(kind=ModulationKind(s["scheme"]), f_m=f_m, gamma=gamma)
    except ConfigurationError as exc:  # the small-signal schemes' bound on gamma
        raise ConfigurationError(f"field link.{'gamma' if s['csr'] is None else 'csr'}: {exc}") from None
    f0 = wavelength_to_frequency(wavelength)
    return LinkConfig(
        spectrum=RectangularSpectrum(n0=s["psd_level"], b=s["bandwidth"], carrier_f0=f0),
        interferometer=InterferometerSpec(delay_d=delay, carrier_f0=f0),
        dispersion=dispersion,
        scheme=scheme,
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        data = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    # ValueError: text that is not UTF-8, or an integer or date too big for Python
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        raise ConfigurationError(f"scenario parse error: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError("scenario must be a mapping")
    for key in data:
        if key not in _SCHEMA:
            raise ConfigurationError(f"field {key}: unknown key (allowed: {', '.join(_SCHEMA)})")
    if "link" not in data:
        raise ConfigurationError("field link: missing section")
    link = _read("link", data["link"], {})
    sweep = mc = oeo = rf_power = None
    if "sweep" in data:
        s = _read("sweep", data["sweep"], {"center_wavelength": link["center_wavelength"]})
        sweep = SweepSpec(s["variable"], s["start"], s["stop"], s["points"])
    if "mc" in data:
        mc = McSpec(**_read("mc", data["mc"], {}))
    if "oeo" in data:
        oeo = OeoSpec(**_read("oeo", data["oeo"], {}))
        if oeo.delta is None and not oeo.from_link:
            raise ConfigurationError("field oeo: provide delta or from_link: true")
    if "rf_input_power" in data:
        rf_power = _value("rf_input_power", data["rf_input_power"], _SCHEMA["rf_input_power"], {})
    expect = _read("expect", data.get("expect"), {})
    outputs = _read("outputs", data.get("outputs"), {})
    return Scenario(
        link=_link(link),
        sweep=sweep,
        mc=mc,
        oeo=oeo,
        rf_input_power_w=rf_power,
        expect={key: value for key, value in expect.items() if value is not None},
        output_path=outputs["path"],
        output_format=outputs["format"],
        raw_text=text,
    )
