import json

import numpy as np
import pytest

from ibosmpf.cli import main
from ibosmpf.errors import ConfigurationError
from ibosmpf.scenario import SWEEP_AXES, load_scenario

BASE_LINK = """link:
  scheme: {scheme}
  bandwidth: 3.2 nm
  center_wavelength: 1550 nm
  dispersion: -989 ps/nm
  delay: 79.4 ps
  gamma: {gamma}
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    header = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append(dict(zip(header, line.split(","))))
    return header, rows


# --- exit codes -----------------------------------------------------------


def test_bad_units_exit_2(tmp_path, capsys):
    scenario = write(
        tmp_path,
        "bad.yaml",
        """link:
  scheme: ssb
  bandwidth: 3.2
  dispersion: -989 ps/nm
  delay: 79.4 ps
  gamma: 0.39
""",
    )
    assert main(["snr", "--scenario", scenario]) == 2
    assert "link.bandwidth" in capsys.readouterr().err


def test_sign_mismatch_exit_3(tmp_path):
    scenario = write(
        tmp_path,
        "neg.yaml",
        BASE_LINK.format(scheme="ssb", gamma=0.39).replace("79.4 ps", "-79.4 ps"),
    )
    assert main(["snr", "--scenario", scenario]) == 3


@pytest.mark.parametrize(
    "extra,field",
    [
        ("sweep: 5\n", "sweep"),
        ("mc: 3\n", "mc"),
        ("outputs: 5\n", "outputs"),
        ("oeo: 7\n", "oeo"),
        ("expect: 94.9\n", "expect"),
        ("mcc:\n  seed: 1\n", "mcc"),
        ("  colour: red\n", "link.colour"),
        ("sweep:\n  variable: gamma\n  start: 0.1\n  stop: 0.2\n  points: 2\n  step: 1\n", "sweep.step"),
        ("mc:\n  seeds: 3\n", "mc.seeds"),
        ("oeo:\n  tau: 1 us\n  from_link: true\n  taus: 2 us\n", "oeo.taus"),
        ("expect:\n  snr_db_hz: high\n", "expect.snr_db_hz"),
        ("outputs:\n  path: 5\n", "outputs.path"),
        ("mc:\n  seed: -1\n", "mc.seed"),
        ("oeo:\n  tau: 0 s\n  from_link: true\n", "oeo.tau"),
        ("sweep:\n  variable: gamma\n  start: 0.1\n  stop: 0.2\n  points: true\n", "sweep.points"),
        ("oeo:\n  tau: 1 us\n  from_link: 'no'\n", "oeo.from_link"),
        ("mc:\n  samples: 1000\n", "mc.samples"),
        ("mc:\n  realizations: 0\n", "mc.realizations"),
        ("rf_input_power: 4000 dBm\n", "rf_input_power"),
    ],
)
def test_malformed_section_exit_2(tmp_path, capsys, extra, field):
    scenario = write(tmp_path, "sec.yaml", BASE_LINK.format(scheme="ssb", gamma=0.39) + extra)
    assert main(["snr", "--scenario", scenario]) == 2
    assert f"field {field}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra,field",
    [
        ("sweep:\n  variable: f_m\n  start: 1 GHz\n  stop: 2 GHz\n  points: 1000000000\n", "sweep.points"),
        ("oeo:\n  tau: 1 us\n  from_link: true\n  points: 1000000000\n", "oeo.points"),
        ("mc:\n  samples: 1099511627776\n", "mc.samples"),
        ("mc:\n  realizations: 1000000\n", "mc.realizations"),
    ],
)
def test_size_caps_rejected_by_loader(tmp_path, extra, field):
    path = write(tmp_path, "big.yaml", BASE_LINK.format(scheme="ssb", gamma=0.39) + extra)
    with pytest.raises(ConfigurationError, match=f"field {field}:"):
        load_scenario(path)


def test_not_utf8_exit_2(tmp_path):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(BASE_LINK.format(scheme="ssb", gamma=0.39).encode() + b"# caf\xe9\n")
    assert main(["snr", "--scenario", str(path)]) == 2


@pytest.mark.parametrize("flag", ["--seed=-1", "--tol-db=nan", "--tol-db=inf", "--tol-db=-0.5"])
def test_bad_flag_value_exit_2(tmp_path, capsys, flag):
    scenario = write(tmp_path, "ok.yaml", BASE_LINK.format(scheme="ssb", gamma=0.39) + "expect:\n  snr_db_hz: 94.9\n")
    assert main(["snr", "--scenario", scenario, "--compare", flag]) == 2
    assert flag.split("=")[0] in capsys.readouterr().err


def test_exponent_without_dot_is_a_number(tmp_path):
    outs = []
    for gamma in ("1e-3", "0.001"):
        outs.append(str(tmp_path / f"{gamma}.csv"))
        scenario = write(tmp_path, f"{gamma}.yaml", BASE_LINK.format(scheme="ssb", gamma=gamma))
        assert main(["snr", "--scenario", scenario, "--out", outs[-1]]) == 0
    assert read_rows(outs[0]) == read_rows(outs[1])


@pytest.mark.parametrize(
    "command,axis",
    [(c, a) for c in ("response", "snr", "passband", "oeo") for a in SWEEP_AXES if SWEEP_AXES[a][0] != c],
)
def test_axis_of_another_command_exit_2(tmp_path, capsys, command, axis):
    scenario = write(
        tmp_path,
        "axis.yaml",
        BASE_LINK.format(scheme="ssb", gamma=0.39)
        + "oeo:\n  tau: 1 us\n  from_link: true\n"
        + f"sweep:\n  variable: {axis}\n  start: {'0.1' if axis == 'gamma' else '1 GHz'}\n  stop: {'0.2' if axis == 'gamma' else '2 GHz'}\n  points: 2\n",
    )
    assert main([command, "--scenario", scenario]) == 2
    err = capsys.readouterr().err
    assert "field sweep.variable:" in err
    assert all(a in err for a in SWEEP_AXES if SWEEP_AXES[a][0] == command)


def test_bad_csr_number_exit_2(tmp_path, capsys):
    text = BASE_LINK.format(scheme="ssb", gamma=0.39).replace("gamma: 0.39", "csr: abc dB")
    assert main(["snr", "--scenario", write(tmp_path, "csr.yaml", text)]) == 2
    assert "field link.csr:" in capsys.readouterr().err


def test_oeo_domain_exit_3(tmp_path):
    scenario = write(
        tmp_path,
        "oeo.yaml",
        BASE_LINK.format(scheme="ssb", gamma=0.39)
        + "oeo:\n  tau: 1 us\n  delta: 2 us\n",
    )
    assert main(["oeo", "--scenario", scenario]) == 3


@pytest.mark.parametrize(
    "command,scheme,old,new,extra",
    [
        ("snr", "ssb", "3.2 nm", "1e-292 Hz", ""),  # SNR underflows to 0
        ("snr", "pm", "3.2 nm", "1e-292 Hz", ""),
        ("snr", "ssb", "gamma: 0.39", "gamma: 1e-170", ""),  # gamma**2 == 0
        ("snr", "ssb", "gamma: 0.39", "gamma: 0.39\n  psd_level: 1e200 W/Hz", ""),  # n0**2 overflows
        ("oeo", "ssb", "", "", "oeo:\n  tau: 1 us\n  delta: 5e-324 s\n  points: 5\n"),  # S(f') underflows
    ],
)
def test_extreme_operating_point_exit_3(tmp_path, command, scheme, old, new, extra):
    text = BASE_LINK.format(scheme=scheme, gamma=0.39).replace(old, new) + extra
    assert main([command, "--scenario", write(tmp_path, "x.yaml", text)]) == 3


def test_compare_pass_and_fail(tmp_path):
    scenario = write(
        tmp_path,
        "cmp.yaml",
        BASE_LINK.format(scheme="ssb", gamma=0.39)
        + "expect:\n  snr_db_hz: 94.9\noutputs:\n  path: %s\n" % (tmp_path / "out.csv"),
    )
    assert main(["snr", "--scenario", scenario, "--compare", "--tol-db", "0.5"]) == 0
    assert main(["snr", "--scenario", scenario, "--compare", "--tol-db", "0.001"]) == 4


# --- response --------------------------------------------------------------


def test_response_csv_deterministic_and_notched(tmp_path):
    scenario = write(
        tmp_path,
        "resp.yaml",
        BASE_LINK.format(scheme="dsb", gamma=0.39)
        + """sweep:
  variable: f_m
  start: 2 GHz
  stop: 16 GHz
  points: 701
""",
    )
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    assert main(["response", "--scenario", scenario, "--out", out1]) == 0
    assert main(["response", "--scenario", scenario, "--out", out2]) == 0
    assert open(out1).read() == open(out2).read()
    header, rows = read_rows(out1)
    assert header == ["f_m_hz", "signal_power_db", "scheme"]
    assert rows[0]["scheme"] == "dsb"
    f = np.array([float(r["f_m_hz"]) for r in rows])
    db = np.array([float(r["signal_power_db"]) for r in rows])
    at_4g = db[np.argmin(np.abs(f - 4e9))]
    near_null = db[np.abs(f - 7.9427e9) < 0.1e9]
    assert near_null.min() <= at_4g - 20.0
    head = open(out1).read().splitlines()[:4]
    assert head[0].startswith("# ibosmpf")
    assert head[2].startswith("# scenario sha256: ")


def test_response_single_point(tmp_path):
    scenario = write(
        tmp_path,
        "one.yaml",
        BASE_LINK.format(scheme="ssb", gamma=0.39)
        + "sweep:\n  variable: f_m\n  start: 10 GHz\n  stop: 10 GHz\n  points: 1\n",
    )
    out = str(tmp_path / "one.csv")
    assert main(["response", "--scenario", scenario, "--out", out]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 1


# --- snr sweeps ---------------------------------------------------------------


def test_snr_gamma_sweep_monotone_with_nf(tmp_path):
    scenario = write(
        tmp_path,
        "gam.yaml",
        BASE_LINK.format(scheme="ssb", gamma=0.39)
        + """rf_input_power: 6 dBm
sweep:
  variable: gamma
  start: 0.1
  stop: 0.8
  points: 8
""",
    )
    out = str(tmp_path / "gam.csv")
    assert main(["snr", "--scenario", scenario, "--out", out]) == 0
    header, rows = read_rows(out)
    assert header == ["x", "snr_exact_dbhz", "snr_paper_approx_dbhz", "nf_db"]
    snr = [float(r["snr_exact_dbhz"]) for r in rows]
    assert all(b > a for a, b in zip(snr, snr[1:]))
    nf = [float(r["nf_db"]) for r in rows]
    assert all(b < a for a, b in zip(nf, nf[1:]))


def test_snr_frequency_sweep_ripples(tmp_path):
    scenario = write(
        tmp_path,
        "fc.yaml",
        BASE_LINK.format(scheme="pm", gamma=0.41)
        + """sweep:
  variable: f_c
  start: 4 GHz
  stop: 16 GHz
  points: 49
""",
    )
    out = str(tmp_path / "fc.csv")
    assert main(["snr", "--scenario", scenario, "--out", out]) == 0
    _, rows = read_rows(out)
    approx = np.array([float(r["snr_paper_approx_dbhz"]) for r in rows])
    assert approx.max() - approx.min() > 0.5  # periodic ripple visible


def test_snr_with_mc_columns(tmp_path):
    scenario = write(
        tmp_path,
        "mc.yaml",
        BASE_LINK.format(scheme="ssb", gamma=0.39)
        + """mc:
  dt: 0.25 ps
  samples: 65536
  realizations: 8
  seed: 7
""",
    )
    out = str(tmp_path / "mc.csv")
    assert main(["snr", "--scenario", scenario, "--out", out, "--mc", "--seed", "9"]) == 0
    assert any(line == "# seed: 9" for line in open(out).read().splitlines()[:4])
    assert main(["snr", "--scenario", scenario, "--out", out, "--mc"]) == 0
    header, rows = read_rows(out)
    assert header[-2:] == ["mc_snr_dbhz", "mc_stderr_db"]
    assert len(rows) == 1
    # loose sanity: the tiny-budget MC lands within a few dB of analytic
    assert abs(float(rows[0]["mc_snr_dbhz"]) - float(rows[0]["snr_exact_dbhz"])) < 3.0
    # seed appears in the header comment
    assert any(line == "# seed: 7" for line in open(out).read().splitlines()[:4])


# --- passband / oeo --------------------------------------------------------------


def test_passband_columns(tmp_path):
    scenario = write(
        tmp_path,
        "pb.yaml",
        BASE_LINK.format(scheme="ssb", gamma=0.39)
        + """sweep:
  variable: detuning
  start: -0.3 GHz
  stop: 0.3 GHz
  points: 13
""",
    )
    out = str(tmp_path / "pb.csv")
    assert main(["passband", "--scenario", scenario, "--out", out]) == 0
    header, rows = read_rows(out)
    assert header == ["detuning_hz", "shape_db"]
    center = [r for r in rows if abs(float(r["detuning_hz"])) < 1][0]
    assert float(center["shape_db"]) == pytest.approx(0.0, abs=1e-9)


def test_passband_with_mc_columns(tmp_path):
    scenario = write(
        tmp_path,
        "pbmc.yaml",
        BASE_LINK.format(scheme="ssb", gamma=0.39)
        + """sweep:
  variable: detuning
  start: -0.13 GHz
  stop: 0.13 GHz
  points: 3
mc:
  dt: 0.25 ps
  samples: 65536
  realizations: 8
  seed: 3
""",
    )
    out = str(tmp_path / "pbmc.csv")
    assert main(["passband", "--scenario", scenario, "--out", out, "--mc"]) == 0
    header, rows = read_rows(out)
    assert header == ["detuning_hz", "shape_db", "mc_shape_db", "mc_stderr_db"]
    mc_db = [float(r["mc_shape_db"]) for r in rows]
    assert max(mc_db) == pytest.approx(0.0, abs=1e-12)  # normalized to its peak
    assert all(np.isfinite(v) for v in mc_db)


def test_oeo_peaks_flagged(tmp_path):
    scenario = write(
        tmp_path,
        "oeo2.yaml",
        BASE_LINK.format(scheme="ssb", gamma=0.39)
        + """oeo:
  tau: 1 us
  delta: 1e-12 s
sweep:
  variable: f_offset
  start: 0.25 MHz
  stop: 2 MHz
  points: 8
""",
    )
    out = str(tmp_path / "oeo2.csv")
    assert main(["oeo", "--scenario", scenario, "--out", out]) == 0
    _, rows = read_rows(out)
    peaks = [float(r["f_offset_hz"]) for r in rows if r["is_peak"] == "1"]
    assert peaks == [1e6, 2e6]


def test_json_mirrors_csv(tmp_path):
    scenario = write(
        tmp_path,
        "json.yaml",
        BASE_LINK.format(scheme="ssb", gamma=0.39)
        + "sweep:\n  variable: f_m\n  start: 9 GHz\n  stop: 11 GHz\n  points: 3\n",
    )
    out_csv = str(tmp_path / "r.csv")
    out_json = str(tmp_path / "r.json")
    assert main(["response", "--scenario", scenario, "--out", out_csv]) == 0
    assert main(["response", "--scenario", scenario, "--out", out_json, "--format", "json"]) == 0
    _, rows = read_rows(out_csv)
    payload = json.loads(open(out_json).read())
    assert payload["meta"]["tool"] == "ibosmpf"
    assert len(payload["rows"]) == len(rows) == 3
    for csv_row, json_row in zip(rows, payload["rows"]):
        assert float(csv_row["signal_power_db"]) == pytest.approx(
            json_row["signal_power_db"], abs=1e-9
        )
