#!/usr/bin/env python3
"""Repository benchmark for ibosmpf: one workload, one process, one caller.

Run from the repository root::

    python3 perfbench/run.py --workload mc_ensemble --seed 1 --seconds 40 --trace 0

The package is imported from ``src/`` next to this directory.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records provenance.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the run
measures untraced, then traced, and reports the per-layer metrics.  The exit
code is 0 when every check passed, 1 when one failed and 2 when the package
cannot be found.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 3  # this process plus two fresh interpreters
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("mc_ensemble", "analytic_curves")


def cap_threads() -> int:
    """Cap the numeric libraries' thread pools at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def set_up(workload: str, seed: int, size_name: str):
    """Import the package, build the workload's inputs and warm it up."""
    t0 = time.perf_counter()
    import workloads  # imports ibosmpf, numpy and scipy

    size = workloads.SIZES[size_name]
    wl = workloads.WORKLOADS[workload](seed, size, WORKDIR / workload, workloads.load_refs(size))
    wl.warm_up()
    return time.perf_counter() - t0, wl


def probe_setup(args) -> float:
    """Set-up time measured in a fresh interpreter (import included)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_phase(wl, seconds: float):
    """Closed loop: each step starts when the previous one has returned."""
    ops = []
    start = time.perf_counter()
    i = 0
    while i < wl.min_steps or time.perf_counter() - start < seconds:
        ops.extend(wl.step(i))
        i += 1
    return ops, i


def rate(ops, buckets=None) -> float:
    """Points per second of a median step.

    Each kind of call in a step counts once, with the median of its points
    and the median of its times over the run, so that a few calls slowed by
    other tenants of the machine do not move the result.
    """
    by_kind = defaultdict(list)
    for op in ops:
        if op.bucket != "reference" and (buckets is None or op.bucket in buckets):
            by_kind[op.kind].append(op)
    points = sum(statistics.median(op.points for op in calls) for calls in by_kind.values())
    seconds = sum(statistics.median(op.seconds for op in calls) for calls in by_kind.values())
    return points / seconds if seconds > 0 else 0.0


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, nproc: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "ibosmpf").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "smoke" if args.smoke else "full",
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest(),
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def layer_metrics(spans, wl, untraced, traced, steps) -> dict:
    """Per-layer numbers from the traced phase's spans (see README)."""
    from tracing import self_times

    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def ms(i):
        return (spans[i].end - spans[i].start) * 1e3

    def median_ms(*names):
        values = [ms(i) for n in names for i in by_name[n]]
        return statistics.median(values) if values else 0.0

    def median_self_ms(name):
        values = [selfs[i] * 1e3 for i in by_name[name]]
        return statistics.median(values) if values else 0.0

    mc_ops = [op for op in traced if op.bucket == "mc"]
    realizations = sum(op.points for op in mc_ops)
    # counts are per realization on the Monte-Carlo workloads, per pass otherwise
    units = realizations if realizations else steps

    def per_unit(*names, size=False):
        total = sum(spans[i].size if size else 1 for n in names for i in by_name[n])
        return total / units

    # extract_line includes the floor_density call estimate_snr makes next to it
    snr_calls = set(by_name["montecarlo.estimate_snr"])
    per_realization = []
    for i, s in enumerate(spans):
        if s.name == "montecarlo.synthesize_field":
            per_realization.append(0.0)
        elif s.name in ("montecarlo.extract_line", "montecarlo.floor_density") and s.parent in snr_calls:
            per_realization[-1] += ms(i)
    extract_ms = statistics.median(per_realization) if per_realization else 0.0

    stage_ms = [median_ms(f"montecarlo.{n}") for n in ("synthesize_field", "propagate", "estimate_psd")]
    unaccounted = 0.0
    untraced_rate = rate(untraced, ("mc",))
    if realizations and untraced_rate:
        calls = len(mc_ops)
        accounted = sum(stage_ms) + extract_ms + median_self_ms("montecarlo.estimate_snr") * calls / realizations
        unaccounted = 1e3 / untraced_rate - accounted
    overhead = 0.0
    if rate(traced) and rate(untraced):
        overhead = 100.0 * (rate(untraced) / rate(traced) - 1.0)

    attempted = len(untraced) + len(traced)
    failed = sum(op.error is not None for op in untraced + traced)
    metrics = {
        "mc_realizations_per_s": (untraced_rate, "1/s"),
        "response_points_per_s": (rate(untraced, ("response",)), "1/s"),
        "snr_points_per_s": (rate(untraced, ("snr",)), "1/s"),
        "spectral_points_per_s": (rate(untraced, ("spectral",)), "1/s"),
        "error_rate": (failed / attempted, "ratio"),
        "trace.overhead_pct": (overhead, "%"),
        "montecarlo.synthesize_field.ms": (stage_ms[0], "ms"),
        "montecarlo.propagate.ms": (stage_ms[1], "ms"),
        "montecarlo.estimate_psd.ms": (stage_ms[2], "ms"),
        "montecarlo.extract_line.ms": (extract_ms, "ms"),
        "montecarlo.estimate_snr.self_ms": (median_self_ms("montecarlo.estimate_snr"), "ms"),
        "montecarlo.unaccounted_ms_per_realization": (unaccounted, "ms"),
        "montecarlo.fft_calls_per_realization": (per_unit("fft") if realizations else 0.0, "count"),
        "montecarlo.fft_points_per_realization": (per_unit("fft", size=True) if realizations else 0.0, "count"),
        "modulation.HarmonicModulation.evaluate.calls_per_realization": (
            per_unit("modulation.HarmonicModulation.evaluate") if realizations else 0.0, "count"),
        "spectrum.psd.calls_per_realization": (per_unit("spectrum.psd") if realizations else 0.0, "count"),
    }
    for kind in ("dsb", "ssb", "pm", "custom"):
        name = f"closed_forms.frequency_response_sweep.{kind}"
        metrics[f"{name}.ms"] = (median_ms(name), "ms")
    for name in ("pm.pm_line_weights", "engine.fundamental_line_power"):
        metrics[f"{name}.calls"] = (per_unit(name), "count")
        metrics[f"{name}.ms"] = (median_ms(name), "ms")
    metrics["closed_forms.interference_kernel.calls"] = (per_unit("closed_forms.interference_kernel"), "count")
    metrics["spectrum.autocorrelation.calls"] = (
        per_unit("spectrum.RectangularSpectrum.autocorrelation", "spectrum.TabulatedSpectrum.autocorrelation"),
        "count",
    )
    for name in ("closed_forms.snr_ssb", "pm.snr_pm", "pm.pm_continuum", "pm.pm_continuum_grouped"):
        metrics[f"{name}.ms"] = (median_ms(name), "ms")
    metrics["spectrum.cross_spectrum.calls"] = (per_unit("spectrum.cross_spectrum"), "count")
    for kind in ("ssb", "dsb", "pm", "custom", "tabulated"):
        name = f"engine.general_intensity_psd.{kind}"
        metrics[f"{name}.ms"] = (median_ms(name), "ms")
    metrics["quad.band_correlation.calls"] = (per_unit("quad.band_correlation"), "count")
    metrics["quad.band_correlation.ms"] = (median_ms("quad.band_correlation"), "ms")
    metrics["quad.band_correlation.shifts"] = (per_unit("quad.band_correlation", size=True), "count")
    metrics["freq_domain.freq_domain_noise_psd.ms"] = (median_ms("freq_domain.freq_domain_noise_psd"), "ms")
    metrics["spectrum.TabulatedSpectrum.autocorrelation.ms"] = (
        median_ms("spectrum.TabulatedSpectrum.autocorrelation"), "ms")
    metrics["engine.continuum_clamped_points"] = (getattr(wl, "clamped_points", 0) / units, "count")
    metrics["scenario.load_scenario.ms"] = (median_ms("scenario.load_scenario"), "ms")
    metrics["cli.main.self_ms"] = (median_self_ms("cli.main"), "ms")
    metrics["oeo.oeo_phase_noise.ms"] = (median_ms("oeo.oeo_phase_noise"), "ms")
    return metrics


def write_spans(spans, path: Path) -> None:
    names = sorted({s.name for s in spans})
    index = {n: k for k, n in enumerate(names)}
    t0 = spans[0].start if spans else 0.0
    rows = [[index[s.name], round((s.start - t0) * 1e9), round((s.end - t0) * 1e9), s.parent, s.size] for s in spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"names": names, "columns": ["name", "start_ns", "end_ns", "parent", "size"], "spans": rows}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ibosmpf" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'ibosmpf'}", file=sys.stderr)
        return 2
    nproc = cap_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    size = "smoke" if args.smoke else "full"

    setup_s, wl = set_up(args.workload, args.seed, size)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    import ibosmpf

    if Path(ibosmpf.__file__).resolve().parent != (SRC / "ibosmpf").resolve():
        print(f"error: imported ibosmpf from {ibosmpf.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    print(json.dumps({"provenance": provenance(args, nproc)}))

    ops = wl.reference_check()
    untraced, _ = run_phase(wl, args.seconds)
    ops += untraced
    if args.trace:
        import tracing

        recorder = tracing.Recorder()
        restore = tracing.install(recorder)
        wl.clamped_points = 0
        recorder.enabled = True
        try:
            traced, steps = run_phase(wl, args.seconds)
        finally:
            recorder.enabled = False
            restore()
        write_spans(recorder.spans, WORKDIR / f"trace_{args.workload}_{args.seed}.json")
        metrics = layer_metrics(recorder.spans, wl, ops, traced, steps)
        ops += traced
    else:
        samples = [setup_s] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        failed = sum(op.error is not None for op in ops)
        metrics = {
            "throughput_per_s": (rate(ops), "1/s"),
            "setup_s": (statistics.median(samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "check_pass_rate": (1.0 - failed / len(ops), "ratio"),
        }
    failures = [op.error for op in ops if op.error is not None]
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
