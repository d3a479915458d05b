"""Command-line front end: response / snr / passband / oeo sweeps.

Every run reads one scenario file, produces one table (CSV or JSON) with a
provenance header (tool version, scenario hash, root seed), and exits with
0 on success, 2 on configuration errors, 3 on numeric-domain errors, and 4
when a ``--compare`` tolerance fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .closed_forms import (
    frequency_response_sweep,
    noise_figure,
    passband_shape,
    snr_ssb,
)
from .errors import ConfigurationError, DomainError
from .modulation import ModulationKind
from .montecarlo import SimulationGrid, WelchConfig, estimate_snr
from .oeo import noise_to_signal_ratio, oeo_phase_noise
from .pm import snr_pm
from .scenario import SWEEP_AXES, Scenario, load_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ibosmpf",
        description="Single-bandpass microwave photonic filter analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("response", "signal power versus RF frequency"),
        ("snr", "SNR (and optional noise figure / Monte-Carlo) versus a swept variable"),
        ("passband", "passband shape versus detuning from the center"),
        ("oeo", "oscillator phase-noise spectrum versus offset"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="scenario YAML path")
        p.add_argument("--out", default=None, help="output path (default: scenario outputs.path or stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--seed", type=int, default=None, help="override the Monte-Carlo root seed")
        p.add_argument("--compare", action="store_true", help="check results against scenario expectations")
        p.add_argument("--tol-db", type=float, default=0.5, help="tolerance for --compare (dB)")
        p.add_argument("--mc", action="store_true", help="add Monte-Carlo columns (needs an mc block)")
        if name == "response":
            p.add_argument("--absolute", action="store_true", help="absolute powers instead of normalized dB")
    return parser


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_table(args, scenario: Scenario, command: str, columns: list[str], rows: list[dict]) -> None:
    fmt = args.format or scenario.output_format
    path = args.out or scenario.output_path
    seed = _effective_seed(args, scenario)
    sha = hashlib.sha256(scenario.raw_text.encode("utf-8")).hexdigest()
    if fmt == "csv":
        lines = [
            f"# ibosmpf {__version__}",
            f"# command: {command}",
            f"# scenario sha256: {sha}",
            f"# seed: {seed if seed is not None else '-'}",
            ",".join(columns),
        ]
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "meta": {
                "tool": "ibosmpf",
                "version": __version__,
                "command": command,
                "scenario_sha256": sha,
                "seed": seed,
            },
            "columns": columns,
            "rows": [{c: row[c] for c in columns} for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _effective_seed(args, scenario: Scenario):
    if args.seed is not None:
        return args.seed
    if scenario.mc is not None:
        return scenario.mc.seed
    return None


def _mc_setup(args, scenario: Scenario):
    if scenario.mc is None:
        raise ConfigurationError("field mc: block required for --mc")
    grid = SimulationGrid(dt=scenario.mc.dt, n_samples=scenario.mc.samples)
    seed = _effective_seed(args, scenario)
    return grid, scenario.mc.realizations, seed


def _snr_report(link):
    if link.scheme.kind is ModulationKind.SSB:
        return snr_ssb(link)
    if link.scheme.kind is ModulationKind.PM:
        return snr_pm(link)
    raise ConfigurationError(f"field link.scheme: no SNR form for {link.scheme.kind.value}")


def _check_axis(command: str, scenario: Scenario) -> None:
    """Reject a sweep over an axis ``command`` does not sweep, or no sweep where one is needed."""
    axes = [axis for axis, (owner, *_) in SWEEP_AXES.items() if owner == command]
    variable = scenario.sweep.variable if scenario.sweep is not None else None
    if variable not in axes and (variable is not None or command in ("response", "passband")):
        raise ConfigurationError(f"field sweep.variable: {command} sweeps {' or '.join(axes)}")


def run_response(args, scenario: Scenario) -> int:
    f_grid = scenario.sweep.values()
    normalize = not getattr(args, "absolute", False)
    values = frequency_response_sweep(scenario.link, f_grid, normalize_db=normalize)
    if not normalize:
        values = 10.0 * np.log10(np.maximum(values, np.max(values) * 1e-30))
    rows = [
        {"f_m_hz": float(f), "signal_power_db": float(v), "scheme": scenario.link.scheme.kind.value}
        for f, v in zip(f_grid, values)
    ]
    _write_table(args, scenario, "response", ["f_m_hz", "signal_power_db", "scheme"], rows)
    return 0


def _swept_links(scenario: Scenario):
    """(x, link) pairs along the scenario's snr sweep axis."""
    sweep = scenario.sweep
    link = scenario.link
    if sweep is None:
        yield link.passband_center(), link
        return
    for x in sweep.values():
        if sweep.variable == "gamma":
            yield float(x), replace(link, scheme=replace(link.scheme, gamma=float(x)))
        elif sweep.variable == "f_c":
            yield float(x), link.with_delay_for_center(float(x)).with_modulation_frequency(float(x))
        else:  # bandwidth; a scenario's spectrum is always rectangular
            yield float(x), link.with_spectrum(replace(link.spectrum, b=float(x)))


def run_snr(args, scenario: Scenario) -> int:
    columns = ["x", "snr_exact_dbhz", "snr_paper_approx_dbhz"]
    if scenario.rf_input_power_w is not None:
        columns.append("nf_db")
    use_mc = args.mc
    if use_mc:
        grid, n_real, seed = _mc_setup(args, scenario)
        columns += ["mc_snr_dbhz", "mc_stderr_db"]
    rows = []
    failures = []
    for x, link in _swept_links(scenario):
        report = _snr_report(link)
        row = {
            "x": float(x),
            "snr_exact_dbhz": report.snr_db_hz,
            "snr_paper_approx_dbhz": report.snr_approx_db_hz,
        }
        if scenario.rf_input_power_w is not None:
            row["nf_db"] = noise_figure(scenario.rf_input_power_w, report.snr_db_hz)
        if use_mc:
            est = estimate_snr(link, grid, n_realizations=n_real, seed=seed)
            row["mc_snr_dbhz"] = est.snr_db
            row["mc_stderr_db"] = est.snr_stderr_db
            if args.compare and abs(est.snr_db - report.snr_db_hz) > args.tol_db:
                failures.append(
                    f"x={x:g}: MC {est.snr_db:.2f} dB vs exact {report.snr_db_hz:.2f} dB"
                )
        rows.append(row)
    if args.compare and "snr_db_hz" in scenario.expect:
        if len(rows) != 1:
            raise ConfigurationError("field expect.snr_db_hz: applies to single-point runs")
        expected = float(scenario.expect["snr_db_hz"])
        got = rows[0]["snr_paper_approx_dbhz"]
        if abs(got - expected) > args.tol_db:
            failures.append(f"approx SNR {got:.2f} dB vs expected {expected:.2f} dB")
    _write_table(args, scenario, "snr", columns, rows)
    if failures:
        for line in failures:
            print(f"compare failed: {line}", file=sys.stderr)
        return 4
    return 0


def run_passband(args, scenario: Scenario) -> int:
    link = scenario.link
    f_c = link.passband_center()
    detunings = scenario.sweep.values()
    shape = np.asarray(passband_shape(link, detunings), dtype=float)
    shape_db = 10.0 * np.log10(np.maximum(shape, 1e-300))
    columns = ["detuning_hz", "shape_db"]
    mc_cols = None
    if args.mc:
        grid, n_real, seed = _mc_setup(args, scenario)
        welch = WelchConfig()
        powers = []
        errs = []
        for det in detunings:
            f_m = welch.snap_frequency(f_c + det, grid.dt)
            est = estimate_snr(link, grid, n_realizations=n_real, seed=seed, f_m=f_m)
            powers.append(est.mean("line_power"))
            errs.append(est.stderr("line_power"))
        powers = np.asarray(powers)
        errs = np.asarray(errs)
        peak = powers.max()
        mc_cols = (
            10.0 * np.log10(np.maximum(powers, peak * 1e-30) / peak),
            10.0 / math.log(10.0) * errs / np.maximum(powers, peak * 1e-30),
        )
        columns += ["mc_shape_db", "mc_stderr_db"]
    rows = []
    for i, det in enumerate(detunings):
        row = {"detuning_hz": float(det), "shape_db": float(shape_db[i])}
        if mc_cols is not None:
            row["mc_shape_db"] = float(mc_cols[0][i])
            row["mc_stderr_db"] = float(mc_cols[1][i])
        rows.append(row)
    _write_table(args, scenario, "passband", columns, rows)
    return 0


def run_oeo(args, scenario: Scenario) -> int:
    if scenario.oeo is None:
        raise ConfigurationError("field oeo: block required for the oeo command")
    spec = scenario.oeo
    delta = spec.delta
    if spec.from_link:
        delta = noise_to_signal_ratio(_snr_report(scenario.link))
    tau = spec.tau
    if scenario.sweep is not None:
        f_offsets = scenario.sweep.values()
    else:
        f_max = spec.f_max if spec.f_max is not None else 3.0 / tau
        f_offsets = np.linspace(0.0, f_max, spec.points)[1:]
    values = oeo_phase_noise(delta, tau, f_offsets)
    rows = []
    for f, v in zip(f_offsets, values):
        cycles = f * tau
        is_peak = int(abs(cycles - round(cycles)) < 1e-9 * max(1.0, abs(cycles)))
        rows.append(
            {"f_offset_hz": float(f), "s_rf_db": float(10.0 * math.log10(v)), "is_peak": is_peak}
        )
    _write_table(args, scenario, "oeo", ["f_offset_hz", "s_rf_db", "is_peak"], rows)
    return 0


_RUNNERS = {
    "response": run_response,
    "snr": run_snr,
    "passband": run_passband,
    "oeo": run_oeo,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigurationError("--seed: must be a non-negative integer")
        if not 0 <= args.tol_db < math.inf:
            raise ConfigurationError("--tol-db: must be finite and >= 0")
        scenario = load_scenario(args.scenario)
        _check_axis(args.command, scenario)
        return _RUNNERS[args.command](args, scenario)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ArithmeticError) as exc:  # ArithmeticError: float overflow or 0 division
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
