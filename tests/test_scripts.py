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


def test_runtime_does_not_load_scipy(tmp_path):
    # the CLI, the closed forms, the engine and the Monte-Carlo oracle all run
    # on numpy alone; scipy is a test and benchmark dependency only
    scenario = ROOT / "scenarios" / "pm_snr_vs_gamma.yaml"
    code = (
        "import sys\n"
        "from dataclasses import replace\n"
        "import numpy as np\n"
        "from ibosmpf import SimulationGrid, WelchConfig, estimate_snr, reference_link\n"
        "from ibosmpf.cli import main\n"
        "from ibosmpf.engine import general_intensity_psd\n"
        "from ibosmpf.modulation import polarization_modulator_scheme\n"
        "from ibosmpf.spectrum import tabulate\n"
        f"assert main(['snr', '--scenario', {str(scenario)!r}, '--out', 'snr.csv']) == 0\n"
        "pm = reference_link(scheme_kind='pm', gamma=0.41)\n"
        "grid = SimulationGrid(dt=0.25e-12, n_samples=2**16)\n"
        "estimate_snr(pm, grid, n_realizations=8, seed=1, welch=WelchConfig(nperseg=4096))\n"
        "polarization = replace(pm, scheme=polarization_modulator_scheme(0.41, pm.scheme.f_m))\n"
        "general_intensity_psd(polarization, np.linspace(-40e9, 40e9, 33))\n"
        "tabulate(pm.spectrum, 256).intensity_autoconvolution(np.linspace(-400e9, 400e9, 9))\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    done = _python("-c", code, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
