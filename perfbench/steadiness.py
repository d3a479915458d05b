#!/usr/bin/env python3
"""Run every workload over several seeds and report each metric's spread.

Run from the repository root::

    python3 perfbench/steadiness.py --runs 10 --first-seed 1 --out perfbench/steadiness.json

For each workload and end-to-end metric in BENCHMARK.json it records the
values, their median and the spread: the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median.  A spread is steady when it is below a third of the metric's bound;
``setup_s`` is reported but exempt.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--out", default=None, help="JSON file for the results")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    report = {}
    steady = True
    for name in names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        walls = []
        starts = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            starts.append(time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
            t0 = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            walls.append(time.perf_counter() - t0)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                print(f"{name} seed {seed}: run failed\n{done.stderr}", file=sys.stderr)
                return 1
            for metric in values:
                values[metric].append(result["metrics"][metric]["value"])
            print(f"{name} seed {seed}: " + ", ".join(f"{m} {v[-1]:.6g}" for m, v in values.items()), flush=True)
        report[name] = {"run_start_utc": starts, "run_wall_s": walls, "metrics": {}}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            ok = m["name"] == "setup_s" or spread <= m["bound"] / 3.0
            steady &= ok
            report[name]["metrics"][m["name"]] = {
                "median": median, "spread": spread, "bound": m["bound"], "steady": ok, "values": vals,
            }
            print(f"{name:18s} {m['name']:18s} median {median:12.6g}  spread {spread:7.4f}  "
                  f"bound {m['bound']:.3f}  {'ok' if ok else 'NOT STEADY'}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
