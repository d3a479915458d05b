"""Every shipped scenario runs through the command that sweeps its axis."""

from pathlib import Path

import pytest

from ibosmpf.cli import main
from ibosmpf.scenario import SWEEP_AXES, load_scenario

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.yaml"))


def test_scenarios_are_shipped():
    assert len(SCENARIOS) >= 4


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.name)
def test_scenario_runs(tmp_path, path):
    scenario = load_scenario(str(path))
    if scenario.sweep is not None:
        argv = [SWEEP_AXES[scenario.sweep.variable][0]]
    else:
        argv = ["oeo" if scenario.oeo is not None else "snr"]
    if scenario.expect:
        argv.append("--compare")
    out = tmp_path / "out.csv"
    assert main(argv + ["--scenario", str(path), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) > 5
