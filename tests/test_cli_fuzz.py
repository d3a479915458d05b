"""Generated scenarios against the CLI contract: exit 0, 2, 3 or 4, never a traceback,
and an exit-2 message that names the field, flag or file at fault.

Values are drawn from the scenario schema itself, so a key added to the
schema is fuzzed without a change here.  Point counts are either small or
beyond the schema's caps, and no run passes ``--mc``, so no case allocates
a large array or starts a pool.
"""

import contextlib
import copy
import io

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ibosmpf import scenario as sc
from ibosmpf.cli import main

LINK = {
    "scheme": "ssb",
    "bandwidth": "3.2 nm",
    "dispersion": "-989 ps/nm",
    "delay": "79.4 ps",
    "gamma": 0.39,
}
BASES = {
    "response": {"link": LINK, "sweep": {"variable": "f_m", "start": "2 GHz", "stop": "16 GHz", "points": 4}},
    "snr": {"link": LINK, "rf_input_power": "6 dBm", "expect": {"snr_db_hz": 94.9}},
    "passband": {"link": LINK, "sweep": {"variable": "detuning", "start": "-1 GHz", "stop": "1 GHz", "points": 3}},
    "oeo": {"link": LINK, "oeo": {"tau": "1 us", "from_link": True, "points": 5}},
}

JUNK = st.sampled_from([None, True, False, "", "abc", [1, 2], {"a": 1}, "1 2 3"])
NUMBERS = st.floats(-1e3, 1e3) | st.floats() | st.sampled_from([0.0, -0.0, 1e-300, 1e300, 5e-324])
HUGE_INTS = st.sampled_from([10**5 + 1, 4097, 2**23, 10**9, 2**40, 1099511627776, 10**30])


def quantities(units):
    """'number unit' strings, and the usual ways of getting one wrong."""
    unit = st.sampled_from(sorted(units))
    return (
        st.builds(lambda x, u: f"{x!r} {u}", NUMBERS, unit)
        | st.builds(lambda x, u: f"{x!r} {u.upper()}", st.floats(0.01, 100), unit)
        | NUMBERS  # bare number, no unit
        | st.builds(lambda x: f"{x!r} furlongs", NUMBERS)
        | st.sampled_from(["nan GHz", "inf s", "-inf nm", "1e400 Hz", "1e-400 ps", "abc dB", "4000 dBm"])
    )


def values(kind):
    """Values for one schema kind, valid or not."""
    if kind is sc._AXIS:
        return st.one_of([values(axis_kind) for _, axis_kind, _ in sc.SWEEP_AXES.values()])
    if isinstance(kind, dict):
        return quantities(kind)
    if isinstance(kind, tuple):
        return st.sampled_from(kind) | st.sampled_from(kind).map(str.upper) | st.text(max_size=6)
    if kind is float:
        return NUMBERS | st.sampled_from(["1e-3", "2E-1", "high", ".5", "nan", "1_0"])
    if kind in (int, sc._POW2):
        return st.integers(-3, 6) | st.sampled_from([2, 64, 4096, 2**20]) | HUGE_INTS | st.sampled_from([2.0, "8"])
    if kind is bool:
        return st.booleans() | st.sampled_from(["no", "yes", 0, 1])
    return st.text(max_size=8)


def all_keys():
    """(section, key) pairs, None for the top level; each section also gets an unknown key."""
    for section, rules in sc._SCHEMA.items():
        yield None, section
        if isinstance(rules, dict):
            yield from ((section, key) for key in (*rules, "colour"))
    yield None, "mcc"


@st.composite
def cases(draw):
    command = draw(st.sampled_from(sorted(BASES)))
    data = copy.deepcopy(BASES[command])
    for section, key in draw(st.lists(st.sampled_from(list(all_keys())), min_size=1, max_size=3)):
        target = data if section is None else data.setdefault(section, {})
        if not isinstance(target, dict):
            continue
        if draw(st.integers(0, 9)) == 0:
            target.pop(key, None)
            continue
        rule = (sc._SCHEMA if section is None else sc._SCHEMA[section]).get(key)
        # no rule: an unknown key, or a whole section replaced by a non-mapping
        target[key] = draw(values(rule[0]) | JUNK if isinstance(rule, tuple) else JUNK)
    flags = draw(st.lists(st.sampled_from(["--compare", "--seed", "--tol-db"]), unique=True))
    argv = [command]
    for flag in flags:
        if flag == "--seed":
            flag += f"={draw(st.integers(-5, 2**70))}"
        elif flag == "--tol-db":
            flag += f"={draw(st.floats() | st.floats(0, 2))!r}"
        argv.append(flag)
    return argv, data


@settings(max_examples=200, derandomize=True, deadline=None)
@given(cases())
def test_cli_contract_holds_for_generated_scenarios(tmp_path_factory, case):
    argv, data = case
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "scenario.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):  # capsys is function-scoped, which hypothesis rejects
        code = main(argv + ["--scenario", str(path), "--out", str(tmp / "out.txt")])
    assert code in (0, 2, 3, 4)
    if code == 2:
        assert any(name in err.getvalue() for name in ("field ", "--seed", "--tol-db", "scenario", "i/o error"))


@pytest.mark.parametrize("field", ["link.scheme", "link.bandwidth", "link.gamma", "rf_input_power", "outputs.path"])
def test_deeply_nested_values_exit_2(tmp_path, capsys, field):
    # libyaml parses 2,000 levels of nesting that the pure-Python parser
    # refuses with RecursionError; the schema rejects a nested value unread
    data = copy.deepcopy(BASES["snr"])
    section, _, key = field.rpartition(".")
    (data.setdefault(section, {}) if section else data)[key] = "NESTED"
    nested = "[" * 2000 + "{a: 1}" + "]" * 2000
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(data).replace("NESTED", nested), encoding="utf-8")
    assert main(["snr", "--scenario", str(path), "--out", str(tmp_path / "out.csv")]) == 2
    assert f"field {field}: must be a single value" in capsys.readouterr().err
