"""In-memory span recorder that wraps the public functions of ``ibosmpf``.

Nothing inside the package is edited.  :func:`install` replaces each target
function with a wrapper in every ``ibosmpf`` module that holds a reference
to it (``band_correlation`` lives in ``_quad`` but is imported by
``engine``, ``freq_domain`` and ``spectrum``), and each target method on its
class.  Every call made while recording is on becomes one span: name,
start, end and parent.  Spans stay in memory; self times and counts are
computed from them when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

import numpy as np


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    size: int = 0  # transform length, or number of shifts


class Recorder:
    """Collects spans while ``enabled``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, size=0):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, size)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()


def _scheme_tag(args, kwargs):
    link = args[0] if args else kwargs["link"]
    if type(link.spectrum).__name__ == "TabulatedSpectrum":
        return "tabulated"
    return link.scheme.kind.value


# (module, attribute, span name, tag function or None).  A tag function maps
# the call's arguments to a suffix, so one function yields per-case spans.
_FUNCTIONS = (
    ("montecarlo", "estimate_snr", "montecarlo.estimate_snr", None),
    ("montecarlo", "synthesize_field", "montecarlo.synthesize_field", None),
    ("montecarlo", "propagate", "montecarlo.propagate", None),
    ("montecarlo", "estimate_psd", "montecarlo.estimate_psd", None),
    ("montecarlo", "extract_line", "montecarlo.extract_line", None),
    ("montecarlo", "floor_density", "montecarlo.floor_density", None),
    ("closed_forms", "frequency_response_sweep", "closed_forms.frequency_response_sweep", _scheme_tag),
    ("closed_forms", "interference_kernel", "closed_forms.interference_kernel", None),
    ("closed_forms", "snr_ssb", "closed_forms.snr_ssb", None),
    ("pm", "pm_line_weights", "pm.pm_line_weights", None),
    ("pm", "snr_pm", "pm.snr_pm", None),
    ("pm", "pm_continuum", "pm.pm_continuum", None),
    ("pm", "pm_continuum_grouped", "pm.pm_continuum_grouped", None),
    ("engine", "fundamental_line_power", "engine.fundamental_line_power", None),
    ("engine", "general_intensity_psd", "engine.general_intensity_psd", _scheme_tag),
    ("_quad", "band_correlation", "quad.band_correlation", None),
    ("freq_domain", "freq_domain_noise_psd", "freq_domain.freq_domain_noise_psd", None),
    ("oeo", "oeo_phase_noise", "oeo.oeo_phase_noise", None),
    ("scenario", "load_scenario", "scenario.load_scenario", None),
    ("cli", "main", "cli.main", None),
)

# (class, method, span name)
_METHODS = (
    ("modulation.HarmonicModulation", "evaluate", "modulation.HarmonicModulation.evaluate"),
    ("spectrum.RectangularSpectrum", "psd", "spectrum.psd"),
    ("spectrum.TabulatedSpectrum", "psd", "spectrum.psd"),
    ("spectrum.RectangularSpectrum", "autocorrelation", "spectrum.RectangularSpectrum.autocorrelation"),
    ("spectrum.TabulatedSpectrum", "autocorrelation", "spectrum.TabulatedSpectrum.autocorrelation"),
    ("spectrum.RectangularSpectrum", "cross_spectrum", "spectrum.cross_spectrum"),
    ("spectrum.TabulatedSpectrum", "cross_spectrum", "spectrum.cross_spectrum"),
)

# FFT entry points, counted wherever the package or scipy.signal reaches them.
_FFT_MODULES = ("numpy.fft", "scipy.fft")
_FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft")


def _wrap(recorder, name, fn, tag=None, size=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = f"{name}.{tag(args, kwargs)}" if tag is not None else name
        n = size(args, kwargs) if size is not None else 0
        return recorder.call(span_name, fn, args, kwargs, n)

    return wrapper


def _shift_count(args, kwargs):
    shifts = args[4] if len(args) > 4 else kwargs["shifts"]
    return int(np.size(shifts))


def _input_size(args, kwargs):
    x = args[0] if args else kwargs.get("x", kwargs.get("a"))
    return int(np.size(x))


def install(recorder: Recorder):
    """Patch every target; returns a function that restores the originals."""
    import importlib

    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    modules = [m for n, m in list(sys.modules.items()) if n == "ibosmpf" or n.startswith("ibosmpf.")]
    for mod_name, attr, span_name, tag in _FUNCTIONS:
        original = getattr(importlib.import_module(f"ibosmpf.{mod_name}"), attr)
        size = _shift_count if attr == "band_correlation" else None
        wrapper = _wrap(recorder, span_name, original, tag, size)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    patch(module, key, wrapper)
    for path, attr, span_name in _METHODS:
        mod_name, cls_name = path.rsplit(".", 1)
        cls = getattr(importlib.import_module(f"ibosmpf.{mod_name}"), cls_name)
        patch(cls, attr, _wrap(recorder, span_name, cls.__dict__[attr]))
    for mod_name in _FFT_MODULES:
        module = importlib.import_module(mod_name)
        for attr in _FFT_NAMES:
            if attr in vars(module):
                patch(module, attr, _wrap(recorder, "fft", vars(module)[attr], size=_input_size))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out
