"""Self-test of the benchmark at smoke scale.

Run from the repository root::

    python3 -m pytest -q perfbench

It checks that every metric named in BENCHMARK.json is emitted with its unit,
that a perturbed reference value is reported as a failure, and that the
benchmark refuses to run without the package source.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "0", "--seconds", "0.5",
                             "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float)) and math.isfinite(emitted["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)
    provenance = json.loads(done.stdout.strip().splitlines()[-2])["provenance"]
    assert provenance["seed"] == 0 and provenance["nproc"] >= 1


def _perturbed_refs(key, index=0):
    refs = workloads.load_refs(workloads.SMOKE)
    refs[key][index] *= 1.0 + 1e-9
    return refs


def test_perturbed_analytic_reference_is_caught():
    refs = _perturbed_refs("psd.ssb.continuum", 10)
    wl = workloads.AnalyticCurves(0, workloads.SMOKE, run.WORKDIR / "selftest", refs)
    errors = [op.error for op in wl.step(0) if op.error]
    assert len(errors) == 1 and errors[0].startswith("psd.ssb.continuum")


def test_perturbed_monte_carlo_reference_is_caught():
    refs = _perturbed_refs("mc_ensemble.pm.floor")
    wl = workloads.McEnsemble(0, workloads.SMOKE, run.WORKDIR / "selftest", refs)
    errors = [op.error for op in wl.reference_check() if op.error]
    assert len(errors) == 1 and errors[0].startswith("mc_ensemble.pm.floor")


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("analytic_curves", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
