import json
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ibosmpf import cli
from ibosmpf.cli import main
from ibosmpf.closed_forms import noise_psd_shared, passband_shape, signal_power_ssb
from ibosmpf.errors import ConfigurationError
from ibosmpf.montecarlo import McEstimate, WelchConfig
from ibosmpf.scenario import SWEEP_AXES, load_scenario

BASE_LINK = """link:
  scheme: {scheme}
  bandwidth: 3.2 nm
  center_wavelength: 1550 nm
  dispersion: -989 ps/nm
  delay: 79.4 ps
  gamma: {gamma}
"""


SWEEP_F_M = "sweep:\n  variable: f_m\n  start: 2 GHz\n  stop: 16 GHz\n  points: 5\n"


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
        ("mc:\n  samples: 16384\n", "mc.samples"),  # shorter than one Welch segment
        ("mc:\n  realizations: 4\n", "mc.realizations"),  # too few for an ensemble estimate
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


def test_parser_is_built_once_and_keeps_no_state_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    assert cli.build_parser().format_help() == cli.build_parser.__wrapped__().format_help()
    for argv, code in ((["response", "--help"], 0), (["snr", "--bogus"], 2), ([], 2)):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
    first = cli.build_parser().parse_args(["response", "--scenario", "a.yaml", "--absolute", "--seed", "3"])
    second = cli.build_parser().parse_args(["snr", "--scenario", "b.yaml"])
    assert (first.absolute, first.seed) == (True, 3)
    assert second.seed is None and not hasattr(second, "absolute")


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


def test_absolute_response_that_underflows_exits_3(tmp_path, capsys):
    text = BASE_LINK.format(scheme="ssb", gamma=0.39) + "  psd_level: 1e-300 W/Hz\n" + SWEEP_F_M
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning from log10(0)
        assert main(["response", "--absolute", "--scenario", write(tmp_path, "x.yaml", text), "--out", str(out)]) == 3
    assert "domain error: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,scheme,old,new,extra",
    [
        ("snr", "ssb", "3.2 nm", "1e-292 Hz", ""),  # SNR underflows to 0
        ("snr", "pm", "3.2 nm", "1e-292 Hz", ""),
        ("snr", "ssb", "gamma: 0.39", "gamma: 1e-170", ""),  # gamma**2 == 0
        ("snr", "ssb", "gamma: 0.39", "gamma: 0.39\n  psd_level: 1e200 W/Hz", ""),  # n0**2 overflows
        ("oeo", "ssb", "", "", "oeo:\n  tau: 1 us\n  delta: 5e-324 s\n  points: 5\n"),  # S(f') underflows
        ("response", "ssb", "gamma: 0.39", "gamma: 1e-170", SWEEP_F_M),  # every line power is 0
    ],
)
def test_extreme_operating_point_exit_3(tmp_path, capsys, command, scheme, old, new, extra):
    text = BASE_LINK.format(scheme=scheme, gamma=0.39).replace(old, new) + extra
    assert main([command, "--scenario", write(tmp_path, "x.yaml", text)]) == 3
    if command == "snr" and new == "gamma: 1e-170":
        assert "domain error: gamma = 1e-170 underflows" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,scheme,old,new,extra,field",
    [
        ("snr", "ssb", "gamma: 0.39", "gamma: 0", "", "link.gamma"),
        ("snr", "pm", "", "", "sweep:\n  variable: gamma\n  start: 0\n  stop: 0.5\n  points: 3\n", "sweep.start"),
        ("snr", "ssb", "", "", "sweep:\n  variable: gamma\n  start: 0.5\n  stop: 1.6\n  points: 3\n", "sweep.stop"),
        ("oeo", "pm", "gamma: 0.39", "gamma: 0", "oeo:\n  tau: 1 us\n  from_link: true\n", "link.gamma"),
        ("snr", "ssb", "gamma: 0.39", "gamma: 1.6", "", "link.gamma"),
        ("snr", "ssb", "gamma: 0.39", "csr: 2 dB", "", "link.csr"),
        ("response", "dsb", "gamma: 0.39", "gamma: 0", SWEEP_F_M, "link.gamma"),
        ("response", "unmodulated", "", "", SWEEP_F_M, "link.scheme"),
    ],
)
def test_exit_2_names_the_field(tmp_path, capsys, command, scheme, old, new, extra, field):
    text = BASE_LINK.format(scheme=scheme, gamma=0.39).replace(old, new) + extra
    assert main([command, "--scenario", write(tmp_path, "x.yaml", text)]) == 2
    assert f"field {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["snr", "passband"])
@pytest.mark.parametrize(
    "grid, field",
    [
        ("dt: 2 ps\n  samples: 1048576", "mc.dt"),  # 500 GHz, not above the intensity's 4 (B/2 + f_m) = 840 GHz
        ("dt: 0.05 ps\n  samples: 32768", "mc.samples"),  # 1.6 ns, under 32 periods of 10 GHz
    ],
)
def test_mc_grid_errors_name_the_field(tmp_path, capsys, command, grid, field):
    text = (Path(__file__).resolve().parents[1] / "scenarios" / "ssb_reference.yaml").read_text(encoding="utf-8")
    text = text.replace("dt: 0.25 ps\n  samples: 1048576", grid)
    if command == "passband":
        text += "sweep:\n  variable: detuning\n  start: -1 GHz\n  stop: 1 GHz\n  points: 3\n"
    out = tmp_path / "out.csv"
    assert main([command, "--mc", "--scenario", write(tmp_path, "x.yaml", text), "--out", str(out)]) == 2
    assert f"field {field}:" in capsys.readouterr().err
    assert not out.exists()


def test_mc_compare_measures_the_snapped_tone(tmp_path, monkeypatch):
    """--mc --compare holds the ensemble against the exact SNR of the tone the ensemble measures."""

    def exact_snr_at_snapped_tone(link, grid, n_realizations, seed, welch=WelchConfig()):
        f = welch.snap_frequency(link.scheme.f_m, grid.dt)
        assert link.scheme.f_m == f  # the CLI retunes the tone with the centre
        noise = 2.0 * noise_psd_shared(link.with_modulation_frequency(f), f)
        return McEstimate(n_realizations, {"snr_linear": (signal_power_ssb(link, f) / noise, 0.0)})

    monkeypatch.setattr(cli, "estimate_snr", exact_snr_at_snapped_tone)
    # 13 GHz lies half a Welch bin (61 MHz) from the nearest one
    text = BASE_LINK.format(scheme="ssb", gamma=0.44).replace("3.2 nm", "6.4 nm")
    text = text.replace("delay: 79.4 ps", "center_frequency: 13 GHz") + "mc:\n  realizations: 8\n"
    out = tmp_path / "mc.csv"
    assert main(["snr", "--mc", "--compare", "--scenario", write(tmp_path, "x.yaml", text), "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert float(rows[0]["x"]) == pytest.approx(13e9, rel=1e-12)


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


@pytest.mark.parametrize(
    "stop, message",
    [("1e-170", "gamma = 1e-170 underflows"), ("1e-160", "SNR underflows to zero at the operating point")],
)
def test_snr_sweep_with_an_invalid_last_point_exits_3(tmp_path, capsys, stop, message):
    # 0.4 and 0.2 are valid; the last point's gamma**2 is 0 or subnormal
    text = BASE_LINK.format(scheme="pm", gamma=0.39) + (
        f"sweep:\n  variable: gamma\n  start: 0.4\n  stop: {stop}\n  points: 3\n"
    )
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["snr", "--scenario", write(tmp_path, "x.yaml", text), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("start, stop, end", [("-12 GHz", "0.1 GHz", "start"), ("0.1 GHz", "-12 GHz", "stop")])
def test_passband_mc_tone_below_zero_names_the_sweep_end(tmp_path, capsys, start, stop, end):
    # a detuning below -f_c (10 GHz) would put the ensemble's tone below 0 Hz
    text = BASE_LINK.format(scheme="ssb", gamma=0.39) + (
        f"sweep:\n  variable: detuning\n  start: {start}\n  stop: {stop}\n  points: 3\n"
        "mc:\n  dt: 0.25 ps\n  samples: 65536\n  realizations: 8\n  seed: 3\n"
    )
    out = tmp_path / "pb.csv"
    assert main(["passband", "--mc", "--scenario", write(tmp_path, "x.yaml", text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"field sweep.{end}:" in err and "below 0 Hz" in err
    assert not out.exists()


@pytest.mark.parametrize("start, stop, end", [("-10 GHz", "0.1 GHz", "start"), ("0.1 GHz", "-10 GHz", "stop")])
def test_passband_mc_tone_at_zero_names_the_sweep_end(tmp_path, capsys, start, stop, end):
    # f_c - 10 GHz = 18 MHz snaps to the 0 Hz bin (122 MHz wide), where the ensemble sees the DC line
    text = BASE_LINK.format(scheme="ssb", gamma=0.39) + (
        f"sweep:\n  variable: detuning\n  start: {start}\n  stop: {stop}\n  points: 3\n"
        "mc:\n  dt: 0.25 ps\n  samples: 65536\n  realizations: 8\n  seed: 3\n"
    )
    out = tmp_path / "pb.csv"
    assert main(["passband", "--mc", "--scenario", write(tmp_path, "x.yaml", text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"field sweep.{end}:" in err and "tone at 0 Hz" in err
    assert not out.exists()


def test_passband_mc_line_power_not_above_zero_exits_3(tmp_path, capsys, monkeypatch):
    def stopband_at_the_middle_tone(link, grid, n_realizations, seed):
        mean = -2.0e-3 if abs(link.scheme.f_m - link.passband_center()) < 1e9 else 1.0
        return McEstimate(n_realizations, {"line_power": (mean, 0.5)})

    monkeypatch.setattr(cli, "estimate_snr", stopband_at_the_middle_tone)
    text = BASE_LINK.format(scheme="ssb", gamma=0.39) + (
        "sweep:\n  variable: detuning\n  start: -4 GHz\n  stop: 4 GHz\n  points: 3\n"
        "mc:\n  dt: 0.25 ps\n  samples: 65536\n  realizations: 8\n  seed: 3\n"
    )
    out = tmp_path / "pb.csv"
    assert main(["passband", "--mc", "--scenario", write(tmp_path, "x.yaml", text), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "domain error: Monte-Carlo line power at detuning 0 Hz has ensemble mean -0.002" in err
    assert not out.exists()


def test_snr_mc_snr_not_above_zero_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "estimate_snr", lambda *args, **kwargs: McEstimate(8, {"snr_linear": (-3.0e6, 1e7)}))
    text = BASE_LINK.format(scheme="ssb", gamma=0.39) + "mc:\n  samples: 65536\n  realizations: 8\n"
    out = tmp_path / "snr.csv"
    assert main(["snr", "--mc", "--scenario", write(tmp_path, "x.yaml", text), "--out", str(out)]) == 3
    assert "domain error: snr_linear: ensemble mean -3e+06 is not above 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scheme", ["ssb", "pm"])
def test_snr_mc_at_a_vanishing_modulation_index_exits_3(tmp_path, capsys, scheme):
    # at gamma 1e-5 the line is far below the floor's share of its bin: with
    # root seed 4 the ensemble's mean line, and so its mean SNR, is below 0
    text = BASE_LINK.format(scheme=scheme, gamma=0.00001) + "mc:\n  samples: 65536\n  realizations: 8\n"
    out = tmp_path / "snr.csv"
    assert main(["snr", "--mc", "--seed", "4", "--scenario", write(tmp_path, "x.yaml", text), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("domain error: snr_linear: ensemble mean -") and "Traceback" not in err
    assert not out.exists()


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


def test_passband_mc_rows_describe_the_measured_tone(tmp_path, monkeypatch):
    # the ensemble measures each detuned tone at the nearest Welch bin, up to
    # 61 MHz away at 0.25 ps: the row's detuning and analytic shape are that
    # tone's, so both shape columns describe one detuning
    tones = []

    def recording(link, grid, n_realizations, seed):
        tones.append(link.scheme.f_m)
        return McEstimate(n_realizations, {"line_power": (1.0, 0.1)})

    monkeypatch.setattr(cli, "estimate_snr", recording)
    text = BASE_LINK.format(scheme="ssb", gamma=0.39) + (
        "sweep:\n  variable: detuning\n  start: -0.2 GHz\n  stop: 0.2 GHz\n  points: 3\n"
        "mc:\n  dt: 0.25 ps\n  samples: 65536\n  realizations: 8\n  seed: 3\n"
    )
    scenario = write(tmp_path, "x.yaml", text)
    link = load_scenario(scenario).link
    f_c = link.passband_center()
    assert main(["passband", "--scenario", scenario, "--out", str(tmp_path / "a.csv")]) == 0
    _, nominal = read_rows(tmp_path / "a.csv")
    assert [float(r["detuning_hz"]) for r in nominal] == [-0.2e9, 0.0, 0.2e9]
    assert main(["passband", "--mc", "--scenario", scenario, "--out", str(tmp_path / "mc.csv")]) == 0
    _, rows = read_rows(tmp_path / "mc.csv")
    assert tones == [WelchConfig().snap_frequency(f_c + det, 0.25e-12) for det in (-0.2e9, 0.0, 0.2e9)]
    for row, tone, want in zip(rows, tones, nominal):
        detuning = float(row["detuning_hz"])
        assert detuning == pytest.approx(tone - f_c, rel=1e-11)
        assert abs(detuning - float(want["detuning_hz"])) > 1e6  # 8-52 MHz from the swept value here
        shape_db = 10.0 * np.log10(passband_shape(link, detuning))
        assert float(row["shape_db"]) == pytest.approx(shape_db, rel=1e-11, abs=1e-11)


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


JSON_ROWS = [
    {"x": 1.5e9, "y": float("nan"), "s": "ssb"},
    {"x": float("inf"), "y": -float("inf"), "s": 'a "quoted", },{ row'},
    {"x": 3, "y": None, "s": "\u00e9t\u00e9 \u2603 \\ \t"},
    {"x": -0.0, "y": 1e-300, "s": "},\n      {"},
    {"x": True, "y": 2**70, "s": ""},
]


@pytest.mark.parametrize("rows", [JSON_ROWS, JSON_ROWS[:1], []], ids=["rows", "one-row", "no-rows"])
def test_json_table_is_the_indented_dump(tmp_path, rows):
    # the rows are encoded in one call and re-indented; the bytes must be
    # those of json.dumps(payload, indent=2)
    out = tmp_path / "t.json"
    args = SimpleNamespace(format="json", out=str(out), seed=None)
    scenario = SimpleNamespace(output_format="csv", output_path=None, raw_text="link: {}\n", mc=None)
    cli._write_table(args, scenario, "snr", ["x", "y", "s"], rows)
    text = out.read_text(encoding="utf-8")
    payload = json.loads(text)
    assert payload["columns"] == ["x", "y", "s"] and json.dumps(payload["rows"]) == json.dumps(rows)
    assert text == json.dumps(payload, indent=2) + "\n"
    assert cli._indented_json(payload) == json.dumps(payload, indent=2)
