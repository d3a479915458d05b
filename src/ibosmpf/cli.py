"""Command-line front end: response / snr / passband / oeo sweeps.

Every run reads one scenario file, produces one table (CSV or JSON) with a
provenance header (tool version, scenario hash, root seed), and exits with
0 on success, 2 on configuration errors, 3 on numeric-domain errors, and 4
when a ``--compare`` tolerance fails.
"""

from __future__ import annotations

import argparse
import functools
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
    snr_sweep,
)
from .errors import ConfigurationError, DomainError
from .montecarlo import SimulationGrid, WelchConfig, estimate_snr
from .oeo import noise_to_signal_ratio, oeo_phase_noise
from .scenario import SWEEP_AXES, Scenario, load_scenario


@functools.cache  # one parser per process: building it costs 20 times a parse
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
    """Write ``rows``, each keyed by ``columns`` in order, as the table of ``command``."""
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
        lines += [",".join(map(_fmt, row.values())) for row in rows]
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
            "rows": rows,
        }
        text = _indented_json(payload) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _indented_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2)`` for flat rows, the rows C-encoded at once.

    An encoded string holds no raw newline, so "},\n      {" only joins rows.
    """
    head = json.dumps({**payload, "rows": None}, indent=2)
    rows = json.dumps(payload["rows"], separators=(",\n      ", ": "))
    if payload["rows"]:
        rows = "[\n    {\n      " + rows[2:-2].replace("},\n      {", "\n    },\n    {\n      ") + "\n    }\n  ]"
    return head[: -len("null\n}")] + rows + "\n}"


def _effective_seed(args, scenario: Scenario):
    if args.seed is not None:
        return args.seed
    return scenario.mc.seed if scenario.mc is not None else None


def _mc_setup(args, scenario: Scenario):
    if scenario.mc is None:
        raise ConfigurationError("field mc: block required for --mc")
    grid = SimulationGrid(dt=scenario.mc.dt, n_samples=scenario.mc.samples)
    return grid, scenario.mc.realizations, _effective_seed(args, scenario)


def _snapped_tones(tones, grid, sweep):
    """Each tone at the Welch bin the ensemble measures it on; none may land at or below 0 Hz.

    ``sweep`` is the scenario's sweep when it sets the tones, else None: the
    message names the sweep end with the lowest tone, or else ``link.delay``.
    """
    snapped = [WelchConfig().snap_frequency(f, grid.dt) for f in tones]
    if min(snapped) <= 0:  # a tone snapped to 0 Hz would measure the DC line
        field = "link.delay" if sweep is None else f"sweep.{'start' if sweep.start <= sweep.stop else 'stop'}"
        raise ConfigurationError(
            f"field {field}: the Monte-Carlo tone at {min(snapped):g} Hz, the Welch bin nearest "
            f"{min(tones):g} Hz, is at or below 0 Hz"
        )
    return snapped


def _check_axis(command: str, scenario: Scenario) -> None:
    """Reject a sweep over an axis ``command`` does not sweep, or no sweep where one is needed."""
    axes = [axis for axis, (owner, *_) in SWEEP_AXES.items() if owner == command]
    variable = scenario.sweep.variable if scenario.sweep is not None else None
    if variable not in axes and (variable is not None or command in ("response", "passband")):
        raise ConfigurationError(f"field sweep.variable: {command} sweeps {' or '.join(axes)}")


def run_response(args, scenario: Scenario) -> int:
    f_grid = scenario.sweep.values
    normalize = not getattr(args, "absolute", False)
    values = frequency_response_sweep(scenario.link, f_grid, normalize_db=normalize)
    if not normalize:
        values = np.maximum(values, np.max(values) * 1e-30)
        if not np.all(values > 0):
            raise DomainError("absolute response underflows to 0; no dB level")
        values = 10.0 * np.log10(values)
    kind = scenario.link.scheme.kind.value
    rows = [{"f_m_hz": float(f), "signal_power_db": float(v), "scheme": kind} for f, v in zip(f_grid, values)]
    _write_table(args, scenario, "response", ["f_m_hz", "signal_power_db", "scheme"], rows)
    return 0


def _swept_links(scenario: Scenario):
    """(x, link) pairs along the scenario's snr sweep axis; x is None for the one point of no sweep."""
    sweep = scenario.sweep
    link = scenario.link
    if sweep is None:
        yield None, link
        return
    for x in sweep.values:
        if sweep.variable == "gamma":
            yield float(x), replace(link, scheme=replace(link.scheme, gamma=float(x)))
        elif sweep.variable == "f_c":
            yield float(x), link.with_delay_for_center(float(x))  # the SNR retunes f_m to the center
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
    points = list(_swept_links(scenario))
    reports = snr_sweep([link for _, link in points])  # its checks come first, with or without --mc
    if use_mc:  # the ensemble measures its tone on a Welch bin: center each link and its tone there
        tone_sweep = scenario.sweep if getattr(scenario.sweep, "variable", None) == "f_c" else None
        tones = _snapped_tones([link.passband_center() for _, link in points], grid, tone_sweep)
        points = [
            (x, link.with_delay_for_center(f).with_modulation_frequency(f)) for (x, link), f in zip(points, tones)
        ]
        reports = snr_sweep([link for _, link in points])
    rows, failures = [], []
    for (x, link), report in zip(points, reports):
        x = scenario.link.passband_center() if x is None else x  # once snr_sweep has checked gamma
        row = {
            "x": x,
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
                failures.append(f"x={x:g}: MC {est.snr_db:.2f} dB vs exact {report.snr_db_hz:.2f} dB")
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
    detunings = scenario.sweep.values
    columns = ["detuning_hz", "shape_db"]
    mc_cols = []
    if args.mc:
        grid, n_real, seed = _mc_setup(args, scenario)
        tones = _snapped_tones(f_c + detunings, grid, scenario.sweep)
        powers, errs = [], []
        for det, f_m in zip(detunings, tones):
            est = estimate_snr(link.with_modulation_frequency(f_m), grid, n_realizations=n_real, seed=seed)
            power = est.mean("line_power")
            if not power > 0:
                raise DomainError(
                    f"Monte-Carlo line power at detuning {det:g} Hz has ensemble mean {power:g}, "
                    "not above 0; no dB level"
                )
            powers.append(power)
            errs.append(est.stderr("line_power"))
        powers, errs = np.asarray(powers), np.asarray(errs)
        mc_cols = [10.0 * np.log10(powers / powers.max()), 10.0 / math.log(10.0) * errs / powers]
        columns += ["mc_shape_db", "mc_stderr_db"]
        detunings = np.asarray(tones) - f_c  # each row at the tone it measured, the analytic shape there too
    shape = np.asarray(passband_shape(link, detunings), dtype=float)
    values = (detunings, 10.0 * np.log10(np.maximum(shape, 1e-300)), *mc_cols)
    rows = [dict(zip(columns, map(float, row))) for row in zip(*values)]
    _write_table(args, scenario, "passband", columns, rows)
    return 0


def run_oeo(args, scenario: Scenario) -> int:
    if scenario.oeo is None:
        raise ConfigurationError("field oeo: block required for the oeo command")
    spec = scenario.oeo
    delta = spec.delta
    if spec.from_link:
        delta = noise_to_signal_ratio(snr_sweep([scenario.link])[0])
    tau = spec.tau
    if scenario.sweep is not None:
        f_offsets = scenario.sweep.values
    else:
        f_max = spec.f_max if spec.f_max is not None else 3.0 / tau
        f_offsets = np.linspace(0.0, f_max, spec.points)[1:]
    values = oeo_phase_noise(delta, tau, f_offsets)
    rows = []
    for f, v in zip(f_offsets, values):
        cycles = f * tau
        is_peak = int(abs(cycles - round(cycles)) < 1e-9 * max(1.0, abs(cycles)))
        rows.append({"f_offset_hz": float(f), "s_rf_db": float(10.0 * math.log10(v)), "is_peak": is_peak})
    _write_table(args, scenario, "oeo", ["f_offset_hz", "s_rf_db", "is_peak"], rows)
    return 0


_RUNNERS = {"response": run_response, "snr": run_snr, "passband": run_passband, "oeo": run_oeo}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigurationError("--seed: must be a non-negative integer")
        if not 0 <= args.tol_db < math.inf:
            raise ConfigurationError("--tol-db: must be finite and >= 0")
        scenario = load_scenario(args.scenario)
        _check_axis(args.command, scenario)
        return _RUNNERS[args.command](args, scenario)
    except ConfigurationError as exc:
        # a library check leads with the argument it rejects: name that argument's scenario field
        fields = {"dt": "mc.dt", "n_samples": "mc.samples", "scheme": "link.scheme", "gamma": "link.gamma"}
        argument, _, reason = str(exc).partition(": ")
        message = f"field {fields[argument]}: {reason}" if argument in fields else exc
        print(f"configuration error: {message}", file=sys.stderr)
        return 2
    except (DomainError, ArithmeticError) as exc:  # ArithmeticError: float overflow or 0 division
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
