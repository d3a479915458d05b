"""Every shipped scenario runs through its command and writes the table the README lists."""

import math
import re
from pathlib import Path

import pytest
import yaml

from ibosmpf.cli import main
from ibosmpf.scenario import SWEEP_AXES, load_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.yaml"))


def readme_tables():
    """scenario file name -> (command, output file, columns), from the README's Curves table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Curves\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \| `([^`]+)` \| `([^`]+)` \|$", section, re.M)
    return {name: (command, output, columns.split(", ")) for name, command, output, columns in rows}


TABLES = readme_tables()


def columns_written(path):
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return lines[0].split(",")


def test_scenarios_are_shipped():
    assert len(SCENARIOS) >= 4


def test_readme_lists_every_scenario_and_its_table():
    assert sorted(TABLES) == [p.name for p in SCENARIOS]
    outputs = [load_scenario(str(p)).output_path for p in SCENARIOS]
    assert len(set(outputs)) == len(outputs)
    for path, output in zip(SCENARIOS, outputs):
        command, listed, _ = TABLES[path.name]
        assert output == listed
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == f"# ibosmpf {command} --scenario scenarios/{path.name}"


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML without libyaml")
def test_libyaml_parses_every_scenario_as_the_python_parser_does():
    for path in SCENARIOS:
        text = path.read_text(encoding="utf-8")
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.safe_load(text), path.name


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.name)
def test_scenario_runs(tmp_path, path):
    scenario = load_scenario(str(path))
    if scenario.sweep is not None:
        argv = [SWEEP_AXES[scenario.sweep.variable][0]]
    else:
        argv = ["oeo" if scenario.oeo is not None else "snr"]
    assert TABLES[path.name][0].split()[0] == argv[0]
    if scenario.expect:
        argv.append("--compare")
    out = tmp_path / "out.csv"
    assert main(argv + ["--scenario", str(path), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) > 5
    assert columns_written(out) == [c for c in TABLES[path.name][2] if not c.startswith("mc_")]


MC_SCENARIOS = [p for p in SCENARIOS if "mc" in yaml.safe_load(p.read_text(encoding="utf-8"))]


def test_mc_scenarios_are_the_four_reference_points():
    assert [p.name for p in MC_SCENARIOS] == [
        "pm_reference.yaml",
        "pm_reference_6p4nm.yaml",
        "ssb_reference.yaml",
        "ssb_reference_6p4nm.yaml",
    ]


@pytest.mark.parametrize("path", MC_SCENARIOS, ids=lambda p: p.name)
def test_mc_scenario_smoke(tmp_path, path):
    """The file's --mc run on a small ensemble: the listed columns, finite, near the exact SNR."""
    data = yaml.safe_load(path.read_text(encoding="utf-8"))
    data["mc"].update(samples=65536, realizations=8)
    smoke = tmp_path / path.name
    smoke.write_text(yaml.safe_dump(data), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main(["snr", "--mc", "--scenario", str(smoke), "--out", str(out)]) == 0
    columns = columns_written(out)
    assert columns == TABLES[path.name][2]
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert len(lines) == 2
    row = dict(zip(columns, map(float, lines[1].split(","))))
    assert math.isfinite(row["mc_snr_dbhz"]) and math.isfinite(row["mc_stderr_db"])
    # loose sanity: the tiny-budget MC lands within a few dB of analytic
    assert abs(row["mc_snr_dbhz"] - row["snr_exact_dbhz"]) < 3.0
