"""Public names that callers and the perfbench harness reach by attribute.

perfbench/tracing.py wraps these functions and methods by name at run time,
so deleting or renaming one fails the traced benchmark with AttributeError.
The package's settable values, its source lines and its source tokens are
counted here too, each against a ceiling.
"""

import ast
import importlib
import io
import tokenize
from pathlib import Path

import pytest

import ibosmpf

MODULE_FUNCTIONS = [
    ("closed_forms", "frequency_response_sweep"),
    ("closed_forms", "interference_kernel"),
    ("closed_forms", "noise_psd_shared"),
    ("closed_forms", "shared_modulator_decomposition"),
    ("closed_forms", "signal_power_ssb"),
    ("closed_forms", "snr_ssb"),
    ("engine", "fundamental_line_power"),
    ("engine", "general_intensity_psd"),
    ("pm", "pm_continuum"),
    ("pm", "pm_continuum_grouped"),
    ("pm", "pm_decomposition"),
    ("pm", "pm_line_weights"),
    ("pm", "snr_pm"),
    ("_quad", "band_correlation"),
    ("freq_domain", "freq_domain_noise_psd"),
    ("freq_domain", "freq_domain_signal_power"),
    ("montecarlo", "estimate_psd"),
    ("montecarlo", "estimate_snr"),
    ("montecarlo", "extract_line"),
    ("montecarlo", "floor_density"),
    ("montecarlo", "propagate"),
    ("montecarlo", "realization_rng"),
    ("montecarlo", "synthesize_field"),
    ("modulation", "polarization_modulator_scheme"),
    ("oeo", "oeo_phase_noise"),
    ("scenario", "load_scenario"),
    ("spectrum", "tabulate"),
    ("cli", "main"),
]

CLASS_METHODS = [
    ("modulation", "HarmonicModulation", "evaluate"),
    ("spectrum", "RectangularSpectrum", "psd"),
    ("spectrum", "RectangularSpectrum", "autocorrelation"),
    ("spectrum", "RectangularSpectrum", "cross_spectrum"),
    ("spectrum", "TabulatedSpectrum", "psd"),
    ("spectrum", "TabulatedSpectrum", "autocorrelation"),
    ("spectrum", "TabulatedSpectrum", "cross_spectrum"),
]


@pytest.mark.parametrize("name", ibosmpf.__all__)
def test_all_names_resolve(name):
    assert getattr(ibosmpf, name) is not None


@pytest.mark.parametrize("module,name", MODULE_FUNCTIONS)
def test_module_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"ibosmpf.{module}"), name))


@pytest.mark.parametrize("module,cls,method", CLASS_METHODS)
def test_class_method_defined(module, cls, method):
    # defined on the class itself, where a wrapper is installed
    assert callable(vars(getattr(importlib.import_module(f"ibosmpf.{module}"), cls))[method])


# Parameters with defaults plus dataclass fields with defaults over the
# package source, the package's source lines (``wc -l src/ibosmpf/*.py``) and
# its tokens, which no reformatting changes.  Raising any ceiling needs a
# CHANGES.md line that says why.
SETTABLE_VALUES_CEILING = 33
SOURCE_LINES_CEILING = 3188
SOURCE_TOKENS_CEILING = 20651


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def settable_values(package_dir: Path) -> int:
    count = 0
    for path in sorted(package_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return count


def test_settable_values_stay_under_the_ceiling():
    assert settable_values(Path(ibosmpf.__file__).parent) <= SETTABLE_VALUES_CEILING


def source_lines(package_dir: Path) -> int:
    return sum(path.read_bytes().count(b"\n") for path in package_dir.glob("*.py"))


def test_source_lines_stay_under_the_ceiling():
    assert source_lines(Path(ibosmpf.__file__).parent) <= SOURCE_LINES_CEILING


_LAYOUT_TOKENS = {"COMMENT", "NL", "NEWLINE", "INDENT", "DEDENT", "ENDMARKER"}


def source_tokens(package_dir: Path) -> int:
    """``tokenize`` tokens less comments, docstrings and layout; each f-string counts once.

    Python 3.12 splits an f-string into FSTRING_START, its parts and
    FSTRING_END, where earlier versions give one STRING token.
    """
    count = 0
    for path in sorted(package_dir.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        docstrings = {
            (node.body[0].lineno, node.body[0].col_offset)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None
        }
        depth = 0  # of nested f-strings
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            kind = tokenize.tok_name[token.type]
            depth += (kind == "FSTRING_START") - (kind == "FSTRING_END")
            if kind == "FSTRING_START":
                count += depth == 1
            elif depth == 0 and kind != "FSTRING_END" and kind not in _LAYOUT_TOKENS and token.start not in docstrings:
                count += 1
    return count


def test_source_tokens_stay_under_the_ceiling():
    assert source_tokens(Path(ibosmpf.__file__).parent) <= SOURCE_TOKENS_CEILING


def test_source_tokens_leave_out_comments_docstrings_and_layout(tmp_path):
    (tmp_path / "m.py").write_text(
        '"""Module docstring."""\n'
        "# a comment\n"
        "def f(a):\n"
        '    """Function docstring."""\n'
        "\n"
        '    return f"{a!r:>{a}} {f\'{a}\'}" + "x"  # trailing\n'
    )
    # def f ( a ) : return <f-string> + "x"
    assert source_tokens(tmp_path) == 10


def test_settable_values_counts_defaults_and_dataclass_fields(tmp_path):
    (tmp_path / "m.py").write_text(
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *, c=2, d): pass\n"
        "g = lambda x=0: x\n"
        "@dataclass(frozen=True)\n"
        "class A:\n    x: int\n    y: int = 0\n"
        "class B:\n    z: int = 0\n"
    )
    assert settable_values(tmp_path) == 4
