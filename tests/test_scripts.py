"""Fresh-interpreter checks: importing the package and running an ensemble stay light."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _python(*args, cwd):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


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
