"""The benchmark workloads and the checks applied to their outputs.

Each workload drives the public API of ``ibosmpf`` as one caller in a
closed loop.  ``step(i)`` performs the i-th unit of work and returns one
:class:`Op` per timed call; every op is checked as soon as it returns,
outside its timed interval.  Calls go through module attributes
(``montecarlo.estimate_snr``) so that the traced run's wrappers see them.

Two kinds of check guard every run:

* reference outputs recorded from this code at fixed inputs and seeds
  (``refs/<size>.json``), compared at 1e-12 relative to the curve's peak;
* the cross-route bounds of the acceptance gate, unchanged: C4 <= 1e-9,
  C5 <= 1e-6, C6 within max(3 SE, 1 dB).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ibosmpf import cli, closed_forms, engine, freq_domain, montecarlo, oeo, scenario
from ibosmpf.closed_forms import (
    noise_psd_shared,
    shared_modulator_decomposition,
    signal_power_ssb,
    snr_ssb,
)
from ibosmpf.config import LinkConfig, reference_link
from ibosmpf.geometry import DispersionSpec, InterferometerSpec
from ibosmpf.modulation import ModulationKind, SchemeConfig, polarization_modulator_scheme
from ibosmpf.montecarlo import SimulationGrid, WelchConfig
from ibosmpf.pm import pm_decomposition, snr_pm
from ibosmpf.spectrum import RectangularSpectrum, tabulate

REFERENCE_RTOL = 1e-12
C4_TOL = 1e-9
C5_TOL = 1e-6
REFS_DIR = Path(__file__).resolve().parent / "refs"


@dataclass(frozen=True)
class Size:
    """Problem sizes of one benchmark scale."""

    name: str
    grid: SimulationGrid
    ensemble_welch: WelchConfig
    ensemble_realizations: int
    response_points: int
    snr_gamma_points: int
    snr_fc_points: int
    psd_span: float
    psd_points: int
    tabulated_points: int
    fd_links: int
    oeo_points: int


FULL = Size(
    name="full",
    grid=montecarlo.DEFAULT_GRID,
    ensemble_welch=WelchConfig(),
    ensemble_realizations=8,
    response_points=1401,
    snr_gamma_points=31,
    snr_fc_points=121,
    psd_span=440e9,
    psd_points=1024,
    tabulated_points=4096,
    fd_links=50,
    oeo_points=1501,
)

# Smoke scale for the benchmark's self-test: 2^16 samples, the minimum of
# 8 realizations and short grids.  At 2^14 samples the Welch floor estimate
# is biased by 1-3 dB, beyond the C6 bound, so the record stays at 2^16.
# The PSD grid is narrowed so that its step still resolves the 10 GHz lines.
SMOKE = Size(
    name="smoke",
    grid=SimulationGrid(dt=0.25e-12, n_samples=2**16),
    ensemble_welch=WelchConfig(nperseg=2**12),
    ensemble_realizations=8,
    response_points=41,
    snr_gamma_points=5,
    snr_fc_points=7,
    psd_span=40e9,
    psd_points=65,
    tabulated_points=256,
    fd_links=3,
    oeo_points=101,
)

SIZES = {s.name: s for s in (FULL, SMOKE)}


@dataclass
class Op:
    """One timed call: its bucket, what it computed, the output points it produced, its time.

    ``kind`` names the call within a step.  Calls of one kind in later steps
    do the same work, or work of the same size at another seed (the
    Monte-Carlo ensembles and the frequency-domain draws), so the run takes
    the median of their times.
    """

    bucket: str
    kind: str
    points: int
    seconds: float
    error: str | None = None


def load_refs(size: Size) -> dict:
    with open(REFS_DIR / f"{size.name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def relative_error(values, reference) -> float:
    """Largest deviation relative to the reference curve's peak magnitude."""
    a = np.asarray(values, dtype=float)
    b = np.asarray(reference, dtype=float)
    if a.shape != b.shape:
        return math.inf
    scale = float(np.max(np.abs(b), initial=0.0))
    diff = float(np.max(np.abs(a - b), initial=0.0))
    if not math.isfinite(diff):
        return math.inf
    return diff / scale if scale > 0 else diff


class Workload:
    """Shared plumbing: reference comparison or recording, and timing."""

    name = ""
    min_steps = 1

    def __init__(self, seed: int, size: Size, workdir: Path, refs: dict | None):
        self.seed = int(seed) % 2**32  # numpy seed sequences take non-negative seeds
        self.size = size
        self.workdir = workdir
        # refs=None records: expected outputs are collected instead of compared.
        self.refs = refs
        self.recorded: dict[str, list[float]] = {}

    def expect(self, key: str, values) -> str | None:
        """Compare an output with its recorded reference (or record it)."""
        flat = [float(v) for v in np.ravel(np.asarray(values, dtype=float))]
        if self.refs is None:
            self.recorded.setdefault(key, flat)
            return None
        if key not in self.refs:
            return f"{key}: no recorded reference"
        err = relative_error(flat, self.refs[key])
        if err > REFERENCE_RTOL:
            return f"{key}: differs from the recorded reference by {err:.3g} (> {REFERENCE_RTOL:g})"
        return None

    @staticmethod
    def timed(fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        return out, time.perf_counter() - t0

    def warm_up(self) -> None:
        raise NotImplementedError

    def reference_check(self) -> list[Op]:
        return []

    def step(self, i: int) -> list[Op]:
        raise NotImplementedError


def _first_error(*errors):
    found = [e for e in errors if e]
    return "; ".join(found) if found else None


# ---------------------------------------------------------------- Monte-Carlo


def _retuned(link: LinkConfig, welch: WelchConfig, grid: SimulationGrid) -> LinkConfig:
    f_m = welch.snap_frequency(link.passband_center(), grid.dt)
    return link.with_delay_for_center(f_m).with_modulation_frequency(f_m)


def _mc_realization(link, grid, welch, seed, r):
    """Line power and floor of one realization, as ``estimate_snr`` forms them."""
    f_m = link.scheme.f_m
    field = montecarlo.synthesize_field(link.spectrum, grid, montecarlo.realization_rng(seed, r))
    intensity = montecarlo.propagate(field, link, grid)
    decomp = montecarlo.estimate_psd(intensity, grid, welch)
    line, _ = montecarlo.extract_line(
        decomp.frequencies, decomp.continuum, f_m, welch.bin_width(grid.dt)
    )
    floor = montecarlo.floor_density(decomp.frequencies, decomp.continuum, f_m)
    return line, floor


class McEnsemble(Workload):
    """SSB and PM reference links at 3.2 nm, one long ensemble per call."""

    name = "mc_ensemble"
    min_steps = 2
    REFERENCE_SEED = 1234  # MC root seed of the recorded reference realization

    def __init__(self, seed, size, workdir, refs):
        super().__init__(seed, size, workdir, refs)
        welch = size.ensemble_welch
        self.links = (
            _retuned(reference_link(scheme_kind="ssb", gamma=0.39), welch, size.grid),
            _retuned(reference_link(scheme_kind="pm", gamma=0.41), welch, size.grid),
        )
        self._exact = {}

    def warm_up(self) -> None:
        montecarlo.estimate_snr(
            self.links[0], SMOKE.grid, n_realizations=8, seed=self.seed, welch=SMOKE.ensemble_welch
        )

    def reference_check(self) -> list[Op]:
        return [self._reference_realization(link) for link in self.links]

    def _reference_realization(self, link) -> Op:
        key = f"mc_ensemble.{link.scheme.kind.value}"
        try:
            (line, floor), dt = self.timed(
                _mc_realization, link, self.size.grid, self.size.ensemble_welch, self.REFERENCE_SEED, 0
            )
        except Exception as exc:  # noqa: BLE001 - any failure is a counted error
            return Op("reference", key, 1, 0.0, f"{key}: raised {exc!r}")
        error = _first_error(self.expect(f"{key}.line_power", [line]), self.expect(f"{key}.floor", [floor]))
        return Op("reference", key, 1, dt, error)

    def _exact_snr_db(self, link) -> float:
        kind = link.scheme.kind
        if kind not in self._exact:
            report = snr_ssb(link) if kind is ModulationKind.SSB else snr_pm(link)
            self._exact[kind] = report.snr_db_hz
        return self._exact[kind]

    def step(self, i: int) -> list[Op]:
        link = self.links[i % 2]
        kind = link.scheme.kind.value
        root_seed = self.seed + i // 2
        n = self.size.ensemble_realizations
        try:
            est, dt = self.timed(
                montecarlo.estimate_snr,
                link,
                self.size.grid,
                n_realizations=n,
                seed=root_seed,
                welch=self.size.ensemble_welch,
            )
        except Exception as exc:  # noqa: BLE001
            return [Op("mc", kind, n, 0.0, f"estimate_snr raised {exc!r}")]
        # C6: MC SNR within max(3 SE, 1 dB) of the exact closed form
        diff = est.snr_db - self._exact_snr_db(link)
        tol = max(3.0 * est.snr_stderr_db, 1.0)
        error = None
        if not abs(diff) <= tol:
            error = f"C6 {kind} seed {root_seed}: MC - exact = {diff:+.3f} dB (tol {tol:.3f})"
        return [Op("mc", kind, n, dt, error)]


# ------------------------------------------------------------------ analytic


_LINK_YAML = """link:
  scheme: {kind}
  bandwidth: 3.2 nm
  center_wavelength: 1550 nm
  dispersion: -989 ps/nm
  {placement}
  gamma: {gamma}
"""


def random_ssb_link(rng) -> LinkConfig:
    """One random SSB configuration, drawn as in acceptance criterion C4."""
    b = rng.uniform(50e9, 800e9)
    n0 = 10.0 ** rng.uniform(-3, 3)
    f0 = rng.uniform(150e12, 250e12)
    phi = rng.uniform(0.2e-21, 4e-21)
    f_c = rng.uniform(2e9, 18e9)
    gamma = rng.uniform(0.05, 1.2)
    d = 2 * np.pi * phi * f_c
    return LinkConfig(
        spectrum=RectangularSpectrum(n0=n0, b=b, carrier_f0=f0),
        interferometer=InterferometerSpec(delay_d=d, carrier_f0=f0),
        dispersion=DispersionSpec(phi=phi),
        scheme=SchemeConfig(kind=ModulationKind.SSB, f_m=f_c, gamma=gamma),
    )


class AnalyticCurves(Workload):
    """Closed forms, engine, frequency-domain route, OEO and CLI; no Monte-Carlo."""

    name = "analytic_curves"

    def __init__(self, seed, size, workdir, refs):
        super().__init__(seed, size, workdir, refs)
        self.rng = np.random.default_rng(self.seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.cli_jobs = []  # (CLI command = bucket, output key, scenario path, columns)
        for kind, gamma in (("dsb", 0.39), ("ssb", 0.39), ("pm", 0.41)):
            text = _LINK_YAML.format(kind=kind, gamma=gamma, placement="center_frequency: 4 GHz")
            text += f"sweep:\n  variable: f_m\n  start: 2 GHz\n  stop: 16 GHz\n  points: {size.response_points}\n"
            self._add_cli_job("response", f"response.{kind}", text, ["signal_power_db"])
        for kind in ("ssb", "pm"):
            text = _LINK_YAML.format(kind=kind, gamma=0.39 if kind == "ssb" else 0.41, placement="delay: 79.4 ps")
            text += f"sweep:\n  variable: gamma\n  start: 0.05\n  stop: 0.8\n  points: {size.snr_gamma_points}\n"
            text += "rf_input_power: 6 dBm\n"
            self._add_cli_job("snr", f"snr_gamma.{kind}", text, ["snr_exact_dbhz", "snr_paper_approx_dbhz", "nf_db"])
        for kind, gamma in (("ssb", 0.44), ("pm", 0.41)):
            text = _LINK_YAML.format(kind=kind, gamma=gamma, placement="delay: 79.4 ps")
            text += f"sweep:\n  variable: f_c\n  start: 4 GHz\n  stop: 16 GHz\n  points: {size.snr_fc_points}\n"
            self._add_cli_job("snr", f"snr_fc.{kind}", text, ["snr_exact_dbhz", "snr_paper_approx_dbhz"])

        base = reference_link().with_delay_for_center(4e9)
        self.custom_response_link = replace(base, scheme=polarization_modulator_scheme(0.41, base.scheme.f_m))
        self.response_grid = np.linspace(2e9, 16e9, size.response_points)

        ref = reference_link()
        self.psd_grid = np.linspace(-size.psd_span, size.psd_span, size.psd_points)
        self.psd_links = {
            "ssb": ref,
            "dsb": reference_link(scheme_kind="dsb", gamma=0.39),
            "pm": reference_link(scheme_kind="pm", gamma=0.41),
            "custom": replace(ref, scheme=polarization_modulator_scheme(0.41, ref.scheme.f_m)),
            "tabulated": ref.with_spectrum(tabulate(ref.spectrum, size.tabulated_points)),
        }
        self.oeo_tau = 1e-6
        self.oeo_delta = 1.0 / snr_ssb(ref).snr_linear
        self.oeo_offsets = np.linspace(0.0, 3.0 / self.oeo_tau, size.oeo_points)[1:]
        self.clamped_points = 0

    def _add_cli_job(self, bucket, key, text, columns):
        path = self.workdir / f"{key}.yaml"
        path.write_text(text, encoding="utf-8")
        self.cli_jobs.append((bucket, key, path, columns))

    def warm_up(self) -> None:
        scenario.load_scenario(str(self.cli_jobs[0][2]))
        few = self.response_grid[:3]
        closed_forms.frequency_response_sweep(self.custom_response_link, few)
        narrow = np.linspace(-20e9, 20e9, 9)
        for link in self.psd_links.values():
            engine.general_intensity_psd(link, narrow)
        snr_ssb(self.psd_links["ssb"])
        snr_pm(self.psd_links["pm"])
        fd_link = random_ssb_link(np.random.default_rng(0))
        freq_domain.freq_domain_noise_psd(fd_link, fd_link.passband_center())
        oeo.oeo_phase_noise(self.oeo_delta, self.oeo_tau, self.oeo_offsets[:3])

    # one pass over every curve ------------------------------------------------

    def step(self, i: int) -> list[Op]:
        ops = [self._cli_op(*job) for job in self.cli_jobs]
        ops.append(self._custom_response_op())
        ops.extend(self._psd_op(label, link) for label, link in self.psd_links.items())
        ops.extend(self._fd_op(j, random_ssb_link(self.rng)) for j in range(self.size.fd_links))
        ops.append(self._oeo_op())
        return ops

    def _guard(self, bucket, kind, fn):
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - any failure is a counted error
            return Op(bucket, kind, 0, 0.0, f"{kind}: raised {exc!r}")

    def _cli_op(self, bucket, key, path, columns):
        out = self.workdir / f"{key}.out.json"

        def run():
            argv = [bucket, "--scenario", str(path), "--out", str(out), "--format", "json"]
            code, dt = self.timed(cli.main, argv)
            if code != 0:
                return Op(bucket, key, 0, dt, f"{key}: CLI exit code {code}")
            rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
            errors = [self.expect(f"{key}.{c}", [row[c] for row in rows]) for c in columns]
            return Op(bucket, key, len(rows), dt, _first_error(*errors))

        return self._guard(bucket, key, run)

    def _custom_response_op(self):
        def run():
            db, dt = self.timed(closed_forms.frequency_response_sweep, self.custom_response_link, self.response_grid)
            return Op("response", "response.custom", db.size, dt, self.expect("response.custom", db))

        return self._guard("response", "response.custom", run)

    def _psd_op(self, label, link):
        def run():
            decomp, dt = self.timed(engine.general_intensity_psd, link, self.psd_grid)
            self.clamped_points += int(decomp.metadata.get("continuum_clamped_points", 0))
            errors = [
                self.expect(f"psd.{label}.continuum", decomp.continuum),
                self.expect(f"psd.{label}.line_frequencies", decomp.line_frequencies),
                self.expect(f"psd.{label}.line_powers", decomp.line_powers),
            ]
            if label in ("ssb", "dsb", "pm"):
                errors.append(self._c5(label, link, decomp))
            return Op("spectral", f"psd.{label}", self.psd_grid.size, dt, _first_error(*errors))

        return self._guard("spectral", f"psd.{label}", run)

    def _c5(self, label, link, decomp):
        """Engine against the scheme's closed form, as acceptance criterion C5."""
        if label == "pm":
            reference = pm_decomposition(link, self.psd_grid)
        else:
            reference = shared_modulator_decomposition(link, self.psd_grid)
        scale = np.max(np.abs(reference.continuum))
        worst = float(np.max(np.abs(decomp.continuum - reference.continuum)) / scale)
        peak_line = max(reference.line_powers)
        for f, w in zip(reference.line_frequencies, reference.line_powers):
            err = abs(decomp.line_power_at(f) - w) / max(w, 1e-12 * peak_line)
            worst = max(worst, float(err))
        if not worst <= C5_TOL:
            return f"C5 {label}: engine vs closed form {worst:.3g} (> {C5_TOL:g})"
        return None

    def _fd_op(self, j, link):
        def run():
            f_c = link.passband_center()
            freqs = np.array([f_c, 0.4 * f_c])
            t0 = time.perf_counter()
            noise = freq_domain.freq_domain_noise_psd(link, freqs)
            signal = freq_domain.freq_domain_signal_power(link)
            dt = time.perf_counter() - t0
            # C4: frequency-domain route against the time-domain closed forms
            worst = abs(signal - signal_power_ssb(link, f_c)) / signal_power_ssb(link, f_c)
            for f, value in zip(freqs, noise):
                expected = noise_psd_shared(link, f)
                worst = max(worst, abs(value - expected) / expected)
            error = None if worst <= C4_TOL else f"C4: frequency vs time domain {worst:.3g} (> {C4_TOL:g})"
            return Op("spectral", f"freq_domain.{j}", freqs.size, dt, error)

        return self._guard("spectral", f"freq_domain.{j}", run)

    def _oeo_op(self):
        def run():
            values, dt = self.timed(oeo.oeo_phase_noise, self.oeo_delta, self.oeo_tau, self.oeo_offsets)
            return Op("oeo", "oeo", values.size, dt, self.expect("oeo", values))

        return self._guard("oeo", "oeo", run)


WORKLOADS = {w.name: w for w in (McEnsemble, AnalyticCurves)}
