"""Fresh-interpreter checks: the scripts run end to end and the import stays light."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CURVE_FILES = [
    "response_dsb.csv",
    "response_ssb.csv",
    "response_pm.csv",
    "ssb_passband_peaks.csv",
    "snr_vs_gamma_ssb.csv",
    "snr_vs_gamma_pm.csv",
    "snr_vs_frequency_ssb.csv",
    "snr_vs_frequency_pm.csv",
    "passband_shapes.csv",
]


def _python(*args, cwd):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


def test_run_bench_curves_writes_every_table(tmp_path):
    outdir = tmp_path / "curves"
    done = _python(str(ROOT / "scripts" / "run_bench_curves.py"), "--outdir", str(outdir), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in outdir.glob("*.csv")) == sorted(CURVE_FILES)


def test_mc_validation_runs(tmp_path):
    script = str(ROOT / "scripts" / "mc_validation.py")
    done = _python(script, "--samples", "65536", "--realizations", "8", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "bandwidth-doubling law" in done.stdout


@pytest.mark.parametrize("module", ["scipy.signal", "scipy.special", "scipy.fft"])
def test_import_does_not_load(tmp_path, module):
    code = f"import sys, ibosmpf; print({module!r} in sys.modules)"
    done = _python("-c", code, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_estimate_snr_does_not_load_scipy_signal(tmp_path):
    code = (
        "import sys\n"
        "from ibosmpf import SimulationGrid, WelchConfig, estimate_snr, reference_link\n"
        "grid = SimulationGrid(dt=0.25e-12, n_samples=2**16)\n"
        "estimate_snr(reference_link(), grid, n_realizations=8, seed=1, welch=WelchConfig(nperseg=4096))\n"
        "print('scipy.signal' in sys.modules)\n"
    )
    done = _python("-c", code, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
