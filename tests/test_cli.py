"""CLI: expression parsing, config handling, pipelines, determinism."""

import contextlib
import hashlib
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import starq
from starq.cli import (
    MAX_DEGREE, MAX_EXPONENT, MAX_LEVEL, MAX_ORDER, MAX_POWER, ParseError,
    RunConfig, ValidationError,
    emit, load_config_file, main, parse_observable, run,
)
from starq.cp1 import toeplitz_matrix
from starq.symbols import UnboundedSymbol, make_context


def invoke(argv):
    """Run the CLI in-process, capturing stdout bytes and the exit code."""
    class _Buf(io.BytesIO):
        pass

    buf = _Buf()

    class _Stdout:
        buffer = buf

        @staticmethod
        def write(s):
            buf.write(s.encode())

        @staticmethod
        def flush():
            pass

    old = sys.stdout
    sys.stdout = _Stdout()
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# expression parsing

def test_parse_constant_and_sugar():
    assert parse_observable("1").terms == ((1 + 0j, 0, 0, 0),)
    f = parse_observable("(1 - zz) / (1+zz)")
    assert set((c, a, b, k) for c, a, b, k in f.terms) == {
        (1 + 0j, 0, 0, 1), (-1 + 0j, 1, 1, 1)}


def test_parse_general_terms():
    f = parse_observable("0.5 * z^2 zbar^2 / (1+zz)^2 + 3 / (1+zz)")
    assert ((0.5 + 0j), 2, 2, 2) in f.terms
    assert ((3 + 0j), 0, 0, 1) in f.terms


def test_parse_errors():
    with pytest.raises(UnboundedSymbol):
        parse_observable("z^3 / (1+zz)")
    with pytest.raises(ParseError) as exc:
        parse_observable("z + @")
    assert exc.value.pos == 4
    with pytest.raises(ParseError):
        parse_observable("z / (1 - zz)")  # only (1+zz)^k denominators
    with pytest.raises(ParseError):
        parse_observable("(1 + zz")


@pytest.mark.parametrize("expr, pos, match", [
    ("z^65/(1+zz)^33", 2, f"exponent 65 is above {MAX_EXPONENT}"),
    ("((1+zz)^64)^3", 12, f"power of z above {MAX_POWER}"),
    ("z^64 * z^64 * z / (1+zz)^65", 12, f"power of z above {MAX_POWER}"),
    ("zz/(1+zz)^64/(1+zz)^64/(1+zz)", 22,
     rf"power of \(1\+zz\) above {MAX_POWER}"),
])
def test_parse_bounds_powers(expr, pos, match):
    """^k expands by repeated multiplication and a division reads binomials
    back as floats, so exponents and intermediate powers are capped."""
    with pytest.raises(ParseError, match=match) as exc:
        parse_observable(expr)
    assert exc.value.pos == pos


@pytest.mark.parametrize("expr, code", [
    ("z^65/(1+zz)^33", 2), ("((1+zz)^64)^3", 2), ("z^64/(1+zz)^32", 0),
])
def test_large_powers_end_at_once(expr, code, capsys):
    """z^3000/(1+zz)^3000 ran 6.6 s into an OverflowError (exit 3)."""
    start = time.perf_counter()
    argv = ["cp1-toeplitz", "--m", "4", "--expr", expr]
    if code == 2:
        assert_one_validation_error(argv, capsys, "ParseError")
    else:
        assert invoke(argv)[0] == 0
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# config handling

def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[run]\nm = 4\nexpr = (1 - zz) / (1+zz)\nseed = 7\n")
    values = load_config_file(str(path))
    assert values == {"m": 4, "expr": "(1 - zz) / (1+zz)", "seed": 7}


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[run]\nnot_a_key = 1\n")
    with pytest.raises(ValidationError):
        load_config_file(str(path))


def test_runconfig_validation():
    with pytest.raises(ValidationError):
        RunConfig(command="nope").validate()
    with pytest.raises(ValidationError):
        RunConfig(command="weights", samples=0).validate()
    with pytest.raises(ValidationError):
        RunConfig(command="weights", format="xml").validate()


@pytest.mark.parametrize("field,value", [
    ("m", 0), ("m", MAX_LEVEL + 1), ("m", 10 ** 9),
    ("m_list", (8, 0)), ("m_list", (-4,)), ("m_list", (64, MAX_LEVEL + 1)),
])
def test_runconfig_rejects_levels_out_of_range(field, value):
    """Levels are bounded before any (m+1)^2 allocation; only validate runs
    here, so no huge level is ever built."""
    for command in ("cp1-toeplitz", "cp1-berezin", "cp1-suite"):
        with pytest.raises(ValidationError, match="outside"):
            RunConfig(command=command, **{field: value}).validate()


@pytest.mark.parametrize("field,value", [
    ("order", MAX_ORDER + 1), ("order", 10 ** 6),
    ("max_degree", MAX_DEGREE + 1), ("max_degree", 10 ** 6),
    ("m_list", (8, 8)), ("m_list", (8, 16, 8)), ("m_list", ()),
])
def test_runconfig_rejects_order_degree_and_repeated_levels(field, value):
    """--order, an explicit --max-degree, a repeated level and an empty
    --m-list are rejected by validate alone; nothing here is ever run."""
    for command in ("star-karabegov", "star-bt", "cp1-suite"):
        with pytest.raises(ValidationError):
            RunConfig(command=command, **{field: value}).validate()


def test_runconfig_admits_order_and_degree_bounds():
    """The bounds themselves pass, and so does the derived default budget
    3N + 6 at the largest order."""
    assert 3 * MAX_ORDER + 6 <= MAX_DEGREE
    for command in ("star-karabegov", "star-bt", "star-gammelgaard"):
        RunConfig(command=command, order=MAX_ORDER).validate()
        RunConfig(command=command, order=MAX_ORDER,
                  max_degree=MAX_DEGREE).validate()


@pytest.mark.parametrize("argv", [
    ["cp1-suite", "--suite", "bms", "--m-list", "8,8"],
    ["cp1-suite", "--suite", "berezin", "--m-list", "8,16,8"],
])
def test_repeated_level_exits_2_with_one_stderr_line(argv):
    """A repeated level used to reach np.polyfit, whose RankWarnings went to
    stderr ahead of an exit-3 error line."""
    proc = subprocess.run([sys.executable, "-m", "starq.cli"] + argv,
                          env=_subprocess_env(), capture_output=True,
                          timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == b""
    err = proc.stderr.decode().splitlines()
    assert len(err) == 1, err
    assert json.loads(err[0])["error"] == "ValidationError"


def test_runconfig_admits_benchmark_levels():
    """512, the 534 probe and the cap itself pass validation."""
    for m in (1, 512, 534, MAX_LEVEL):
        RunConfig(command="cp1-toeplitz", m=m).validate()
    RunConfig(command="cp1-suite", m_list=(64, 128, 256, 512, 534,
                                            MAX_LEVEL)).validate()


# ---------------------------------------------------------------------------
# pipelines

def test_star_karabegov_pipeline():
    report = run(RunConfig(command="star-karabegov", potential="flat",
                           order=2))
    blob = report.results
    assert blob["order"] == 2
    assert blob["convention"] == "karabegov_anti_wick"
    c1 = [c for c in blob["coefficients"] if c["k"] == 1][0]
    assert any(t["f_dzbar"] == [1] and t["g_dz"] == [1]
               for t in c1["terms"])


def test_weights_pipeline():
    report = run(RunConfig(command="weights", n=1))
    vals = [row["value"] for row in report.results["weights"]]
    assert len(vals) == 2
    assert all(abs(v - 0.5) < 1e-3 for v in vals)


def test_graphs_enumerate_pipeline():
    report = run(RunConfig(command="graphs-enumerate", n=2))
    assert report.results["count"] == 36
    report = run(RunConfig(command="graphs-enumerate", family="weighted",
                           wmax=2))
    assert report.results["count"] == 7


def test_cp1_suite_pipeline():
    report = run(RunConfig(command="cp1-suite", suite="bms",
                           m_list=(8, 16, 32)))
    series = {s["name"]: s for s in report.results["series"]}
    assert abs(series["norm_gap"]["fit"]["slope"] + 1) < 0.1
    csv = emit(report, "csv").decode()
    assert csv.splitlines()[0] == \
        "series,m,value,fit_limit,fit_slope,fit_residual"
    assert len(csv.splitlines()) == 10


def test_exit_codes_and_stderr(capsys):
    code, _ = invoke(["cp1-berezin", "--expr", "z^5"])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert json.loads(err)["error"] == "UnboundedSymbol"
    code, _ = invoke(["weights", "--n", "1", "--grid-nodes", "40",
                      "--tol", "1e-9"])
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["weights", "--n", "1", "--method", "mc", "--samples", "0"],
    ["weights", "--n", "1", "--tol", "nan"],
    ["weights", "--n", "1", "--tol", "inf"],
    ["weights", "--n", "1", "--tol", "0"],
    ["weights", "--n", "1", "--tol=-1e-3"],
    ["weights", "--n", "1", "--eta", "0"],
    ["weights", "--n", "1", "--eta", "-0.1"],
    ["weights", "--n", "1", "--grid-nodes", "1"],
    ["star-kontsevich", "--f-poly", "[[1,[2]]]"],
    ["weights", "--n", "1", "--eta", "inf"],
    ["star-kontsevich", "--f-poly", "[[1e400,[1,0]]]"],
])
def test_invalid_numeric_options_exit_2(argv, capsys):
    assert_one_validation_error(argv, capsys)


_V = "ValidationError"


@pytest.mark.parametrize("argv, content, error", [
    pytest.param(["star-karabegov", "--potential", "FILE"], '{"phi": []}', _V,
                 id="potential-without-phi_minus1"),
    pytest.param(["star-kontsevich", "--alpha-path", "FILE"],
                 '{"alpha": [[0, 1]]}', _V, id="alpha-without-constant"),
    pytest.param(["star-kontsevich", "--alpha-path", "FILE"],
                 '{"constant": [[0, 1]]}', _V, id="alpha-not-square"),
    pytest.param(["star-kontsevich", "--f-poly", "[1]"], None, _V,
                 id="poly-not-terms"),
    pytest.param(["weights", "--config", "FILE"], "n = 1\n", _V,
                 id="config-without-section"),
    pytest.param(["star-bt", "--jobs", "2"], None, _V, id="unknown-flag"),
    pytest.param(["nope"], None, _V, id="unknown-command"),
    pytest.param(["weights", "--n", "1", "--tol", "-1e-3"], None, _V,
                 id="flag-without-value"),
    pytest.param(["cp1-toeplitz", "--expr", ""], None, "ParseError",
                 id="empty-expr"),
    pytest.param(["star-kontsevich", "--f-poly", "[[[1],[1,0]]]"], None, _V,
                 id="poly-coeff-pair-too-short"),
    pytest.param(["cp1-toeplitz", "--m", "1", "--expr", "1e400"], None,
                 "ParseError", id="expr-literal-not-finite"),
    pytest.param(["cp1-berezin", "--at", "nan"], None, _V,
                 id="at-not-finite"),
    # bool is a subclass of int, so JSON booleans need their own check
    pytest.param(["star-kontsevich", "--f-poly", "[[1,[true,false]]]"], None,
                 _V, id="poly-exponent-bool"),
    pytest.param(["star-kontsevich", "--g-poly", "[[true,[1,1]]]"], None, _V,
                 id="poly-coeff-bool"),
    pytest.param(["star-kontsevich", "--g-poly", "[[[1,false],[1,1]]]"], None,
                 _V, id="poly-coeff-pair-bool"),
    pytest.param(["star-kontsevich", "--alpha-path", "FILE"],
                 '{"constant": [[false, true], [-1, 0]]}', _V,
                 id="alpha-bool"),
])
def test_malformed_input_exit_2(argv, content, error, tmp_path, capsys):
    """Malformed input files and argument errors end in one JSON line."""
    path = tmp_path / "input"
    if content is not None:
        path.write_text(content)
    assert_one_validation_error(
        [str(path) if a == "FILE" else a for a in argv], capsys, error)


def _potential_file(n=1, max_degree=12, dz=(1,), re="1", phi=()):
    """An n = 1 potential file z zbar, with one field of the jet replaced."""
    term = {"dz": list(dz), "dzbar": [1], "re": re, "im": "0"}
    jet = {"n": n, "max_degree": max_degree, "terms": [term]}
    return json.dumps({"phi_minus1": jet, "phi": list(phi)})


_PHI_N2 = {"n": 2, "max_degree": 12,
           "terms": [{"dz": [1, 0], "dzbar": [1, 0], "re": "1", "im": "0"}]}


@pytest.mark.parametrize("command", ["star-karabegov", "star-bt"])
@pytest.mark.parametrize("content", [
    pytest.param(_potential_file(dz=[1.5]), id="exponent-float"),
    pytest.param(_potential_file(n=0, dz=[]), id="n-zero"),
    pytest.param(_potential_file(n="1"), id="n-string"),
    pytest.param(_potential_file(max_degree=-1), id="max-degree-negative"),
    pytest.param(_potential_file(dz=[-1]), id="exponent-negative"),
    pytest.param(_potential_file(dz=[1, 0]), id="exponents-too-long"),
    pytest.param(_potential_file(phi=[_PHI_N2]), id="phi-other-n"),
    pytest.param(_potential_file(phi=[dict(_PHI_N2, n=1, max_degree=10,
                                           terms=[])]),
                 id="phi-other-max-degree"),
    pytest.param(_potential_file(re="1/0"), id="zero-denominator"),
])
def test_malformed_potential_file_exit_2(command, content, tmp_path, capsys):
    path = tmp_path / "potential.json"
    path.write_text(content)
    assert_one_validation_error([command, "--potential", str(path), "--order",
                                 "2", "--max-degree", "12"], capsys)


def test_well_formed_potential_file_loads(tmp_path):
    path = tmp_path / "potential.json"
    path.write_text(_potential_file(phi=[dict(_PHI_N2, n=1, terms=[])]))
    code, out = invoke(["star-karabegov", "--potential", str(path), "--order",
                        "2", "--max-degree", "12"])
    assert code == 0 and json.loads(out)["results"]


def test_star_bt_rejects_nonzero_phi(tmp_path, capsys):
    # the Berezin-Toeplitz product depends on omega alone
    path = tmp_path / "potential.json"
    phi0 = json.loads(_potential_file(re="1/3"))["phi_minus1"]
    path.write_text(_potential_file(phi=[phi0]))
    assert_one_validation_error(["star-bt", "--potential", str(path),
                                 "--order", "2", "--max-degree", "12"],
                                capsys, "ValueError")


def test_star_bt_zero_phi_is_no_phi(tmp_path):
    # z zbar + (z zbar)^2 / 4 has non-constant scalar curvature, so from
    # order 3 on, a zero-phi file sent anywhere but the recursion shows.
    # One path for both files, since the report echoes it.
    path = tmp_path / "potential.json"
    argv = ["star-bt", "--potential", str(path), "--order", "3",
            "--max-degree", "12"]
    quartic = {"dz": [2], "dzbar": [2], "re": "1/4", "im": "0"}
    outs = []
    for phi in ((), [dict(_PHI_N2, n=1, terms=[])] * 2):
        obj = json.loads(_potential_file(phi=phi))
        obj["phi_minus1"]["terms"].append(quartic)
        path.write_text(json.dumps(obj))
        code, out = invoke(argv)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("max_degree, exit_code", [(6, 2), (7, 2), (8, 0)])
def test_star_bt_degree_budget(max_degree, exit_code, capsys):
    # order 2 keeps degrees through D - 8; below that nothing is left
    argv = ["star-bt", "--potential", "fs", "--order", "2",
            "--max-degree", str(max_degree)]
    if exit_code:
        assert_one_validation_error(argv, capsys, "BudgetExceeded")
    else:
        code, out = invoke(argv)
        assert code == 0
        assert json.loads(out)["results"]["convention"] == "wick"


def assert_one_validation_error(argv, capsys, error="ValidationError"):
    code, out = invoke(argv)
    assert code == 2 and out == b""
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == error


# Each command starts from an argv that keeps it cheap (kontsevich at order
# 1, sphere levels <= 16); fragments appended after it may override any of
# its options.  None of them asks for n = 2 weights.
_ARGV_BASES = [
    ["star-karabegov"], ["star-bt"], ["star-gammelgaard"],
    ["star-kontsevich", "--order", "1"], ["graphs-enumerate"],
    ["weights", "--grid-nodes", "40", "--tol", "0.5"],
    ["cp1-toeplitz"], ["cp1-berezin", "--m-list", "8,16"],
    ["cp1-suite", "--m-list", "8,16"],
]
_ARGV_FRAGMENTS = [
    ["--order", "0"], ["--order", "1"], ["--order", "-1"], ["--order", "x"],
    ["--potential", "fs"], ["--potential", "aniso"], ["--potential", "nope"],
    ["--max-degree", "4"], ["--max-degree", "-1"],
    ["--n", "0"], ["--n", "1"], ["--family", "weighted"], ["--wmax", "1"],
    ["--m", "1"], ["--m", "16"], ["--m", "0"],
    ["--m-list", "8"], ["--m-list", "16,8"], ["--m-list", "0"],
    ["--m-list", "x"],
    ["--expr", ""], ["--expr", "1e400"], ["--expr", "1e300*1e300"],
    ["--expr", "-zbar"], ["--expr", "z^3/(1+zz)"], ["--expr", "z/(1-zz)"],
    ["--expr", "(1 - zz) / (1+zz)"], ["--expr", "2j*zz/(1+zz)^2"],
    ["--f-expr", "z^2"], ["--g-expr", "1e400"],
    ["--at", "nan"], ["--at", "inf"], ["--at", "0.5+0.2j"],
    ["--at", "1e200"], ["--at", "x"], ["--suite", "berezin"],
    ["--method", "mc"], ["--samples", "1000"], ["--samples", "0"],
    ["--grid-nodes", "1"], ["--eta", "nan"], ["--eta", "inf"],
    ["--eta", "0.5"], ["--tol", "inf"], ["--tol", "1e-12"],
    ["--format", "csv"], ["--format", "xml"], ["--seed", "3"],
    ["--f-poly", "[[[1],[1,0]]]"], ["--f-poly", "[[1e400,[1,0]]]"],
    ["--f-poly", "[[1,[2,1]]]"], ["--g-poly", "[[[1,-1],[1,1]]]"],
    ["--g-poly", "[1]"], ["--jobs", "2"], ["--tol"],
]


@settings(max_examples=40, deadline=None)
@given(base=st.sampled_from(_ARGV_BASES),
       extra=st.lists(st.sampled_from(_ARGV_FRAGMENTS), max_size=3))
def test_any_argv_keeps_the_exit_contract(base, extra):
    """Exit 0, 2 or 3; a failure leaves one JSON line on stderr and nothing
    on stdout; stdout never carries NaN or Infinity."""
    argv = base + [a for frag in extra for a in frag]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = invoke(argv)
    assert code in (0, 2, 3), argv
    assert b"NaN" not in out and b"Infinity" not in out, argv
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and out == b"", argv
        assert set(json.loads(lines[0])) == {"error", "message"}, argv


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: starq" in capsys.readouterr().out


def test_every_exception_has_one_exit_code():
    """main maps ValueError to exit 2 and ArithmeticError to exit 3, so each
    starq exception subclasses exactly one of the two.  The package root
    defines the shared ResourceGuard and NonFiniteResult."""
    found = []
    mods = [starq] + [importlib.import_module(f"starq.{info.name}")
                      for info in pkgutil.iter_modules(starq.__path__)]
    for mod in mods:
        found += [obj for obj in vars(mod).values()
                  if isinstance(obj, type) and issubclass(obj, BaseException)
                  and obj.__module__ == mod.__name__]
    assert len(found) >= 13
    for exc in found:
        assert issubclass(exc, ValueError) != \
            issubclass(exc, ArithmeticError), exc.__name__


def test_determinism_across_runs():
    argv = ["cp1-suite", "--suite", "bms", "--m-list", "8,16"]
    code1, out1 = invoke(argv)
    code2, out2 = invoke(argv)
    code3, out3 = invoke(argv)
    assert code1 == code2 == code3 == 0
    assert out1 == out2 == out3


def test_weights_determinism_mc():
    argv = ["weights", "--n", "1", "--method", "mc", "--tol", "0.05",
            "--format", "csv"]
    code1, out1 = invoke(argv)
    code2, out2 = invoke(argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_out_file_and_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("OUTPUT_DIR", str(tmp_path))
    code, out = invoke(["cp1-toeplitz", "--m", "2", "--expr", "1",
                        "--out", "toeplitz.json"])
    assert code == 0 and out == b""
    blob = json.loads((tmp_path / "toeplitz.json").read_bytes())
    assert blob["results"]["m"] == 2
    entries = blob["results"]["entries"]
    assert entries[0] == [1.0, 0.0] and len(entries) == 9


def test_berezin_pipeline_csv():
    code, out = invoke(["cp1-berezin", "--expr", "(1 - zz) / (1+zz)",
                        "--m-list", "8,16", "--format", "csv"])
    assert code == 0
    lines = out.decode().splitlines()
    assert lines[0] == "m,value"
    m, v = lines[1].split(",")
    assert m == "8" and abs(float(v) - 8 / 10) < 1e-10


PINS = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


@pytest.mark.parametrize("name, argv", [
    ("readme-karabegov-flat-2",
     ["star-karabegov", "--potential", "flat", "--order", "2"]),
    ("readme-bt-fs-2",
     ["star-bt", "--potential", "fs", "--order", "2", "--max-degree", "16"]),
    ("bt-aniso-3", ["star-bt", "--potential", "aniso", "--order", "3"]),
    ("weights-n2", ["weights", "--n", "2"]),
    ("readme-kontsevich",
     ["star-kontsevich", "--order", "2", "--f-poly", "[[1,[2,1]]]",
      "--g-poly", "[[1,[1,1]]]"]),
])
def test_star_reports_match_benchmark_pins(name, argv):
    """Exact-table and graph-weight reports are byte-identical to the
    benchmark's pins."""
    code, out = invoke(argv)
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == json.loads(PINS.read_text())[name]


def test_out_path_that_cannot_be_opened_exits_2(tmp_path, capsys):
    code, out = invoke(["cp1-toeplitz", "--m", "2",
                        "--out", str(tmp_path / "missing" / "x.json")])
    assert code == 2 and out == b""
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "FileNotFoundError"


def _subprocess_env():
    """The environment with the imported starq's source on PYTHONPATH."""
    src = str(Path(starq.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_exact_commands_do_not_import_numpy():
    """Only cp1 and the weight quadrature need numpy; importing the CLI and
    running an exact star-* command or cp1-toeplitz loads neither."""
    code = (
        "import sys, starq.cli\n"
        "assert 'numpy' not in sys.modules, 'loaded by import starq.cli'\n"
        "for argv in (['star-gammelgaard', '--potential', 'aniso',"
        " '--order', '2'],\n"
        "             ['cp1-toeplitz', '--m', '8', '--expr',"
        " '(1 - zz) / (1+zz)'],\n"
        "             ['cp1-toeplitz', '--m', '8', '--expr',"
        " '(2 - zbar^2*z) / (1+zz)^3']):\n"
        "    rc = starq.cli.main(argv)\n"
        "    assert rc == 0, (argv, rc)\n"
        "    assert 'numpy' not in sys.modules, ('loaded by', argv)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


def test_bms_suite_does_not_import_numpy_random():
    """sup_norm draws its sample without numpy.random, which the BMS suite
    would otherwise load for that alone."""
    code = (
        "import sys, starq.cli\n"
        "rc = starq.cli.main(['cp1-suite', '--suite', 'bms', '--m-list',"
        " '8'])\n"
        "assert rc == 0, rc\n"
        "assert 'numpy' in sys.modules\n"
        "assert 'numpy.random' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


def test_numeric_commands_do_not_import_exact_core():
    """The cp1-*, graphs-enumerate and star-kontsevich commands never load
    the exact core; ResourceGuard is one class wherever it is imported."""
    code = (
        "import sys, starq.cli\n"
        "exact = ('starq.jets', 'starq.formal', 'starq.karabegov')\n"
        "for argv in (['cp1-toeplitz', '--m', '8'],\n"
        "             ['cp1-suite', '--m-list', '4,8'],\n"
        "             ['graphs-enumerate', '--n', '2'],\n"
        "             ['star-kontsevich', '--order', '2']):\n"
        "    rc = starq.cli.main(argv)\n"
        "    assert rc == 0, (argv, rc)\n"
        "    loaded = [m for m in exact if m in sys.modules]\n"
        "    assert not loaded, (argv, loaded)\n"
        "import starq.cp1, starq.graphs, starq.jets\n"
        "assert starq.jets.ResourceGuard is starq.cp1.ResourceGuard \\\n"
        "    is starq.graphs.ResourceGuard is starq.ResourceGuard\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


def test_overflow_leaves_one_stderr_line():
    """numpy's floating-point warnings stay off stderr: an overflowed
    cp1 run exits 3 with its JSON error line alone."""
    argv = ["cp1-berezin", "--expr", "(1 - zz) / (1+zz)", "--at", "1e200",
            "--m-list", "8"]
    proc = subprocess.run([sys.executable, "-m", "starq.cli"] + argv,
                          env=_subprocess_env(), capture_output=True,
                          timeout=120)
    assert proc.returncode == 3
    assert proc.stdout == b""
    err = proc.stderr.decode().splitlines()
    assert len(err) == 1, err
    assert json.loads(err[0])["error"] == "NonFiniteResult"


@pytest.mark.parametrize("argv, error", [
    (["cp1-toeplitz", "--m", "8", "--expr", "1e300*1e300/(1+zz)"],
     "NonFiniteResult"),
    (["cp1-toeplitz", "--m", "8", "--expr", "1e200*z*1e200/(1+zz)"],
     "NonFiniteResult"),
    (["cp1-suite", "--m-list", "4,8", "--f-expr", "1e308*zz/(1+zz)",
      "--g-expr", "0"], "NonFiniteResult"),
    (["cp1-toeplitz", "--m", "534"], "ZeroDivisionError"),
    # an infinite coefficient: its Laplacian overflows (reduce_terms), and
    # for a constant the Berezin defect is inf - inf, which max would drop
    (["cp1-suite", "--suite", "berezin", "--m-list", "4", "--f-expr",
      "1e300*1e300/(1+zz)"], "NonFiniteResult"),
    (["cp1-suite", "--suite", "berezin", "--m-list", "4", "--f-expr",
      "1e300*1e300"], "NonFiniteResult"),
    # an infinite Toeplitz matrix stops before the SVD (operator_norm)
    (["cp1-suite", "--m-list", "4", "--f-expr", "1e300*1e300/(1+zz)",
      "--g-expr", "0"], "NonFiniteResult"),
    # finite coefficients whose Laplacian overflows to inf - inf
    (["cp1-suite", "--suite", "berezin", "--m-list", "4,8", "--f-expr",
      "1e308*(1-zz)/(1+zz)"], "NonFiniteResult"),
])
def test_overflow_argvs_keep_the_exit_contract(argv, error):
    """An overflowing sphere run, with or without numpy, exits 3 with one
    JSON line on stderr and nothing on stdout."""
    proc = subprocess.run([sys.executable, "-m", "starq.cli"] + argv,
                          env=_subprocess_env(), capture_output=True,
                          timeout=120)
    assert proc.returncode == 3
    assert proc.stdout == b""
    err = proc.stderr.decode().splitlines()
    assert len(err) == 1, err
    assert json.loads(err[0])["error"] == error


SIX_MONOMIALS = ("((1.5 - 0.25j) + (0.75 + 2j)*z - 1.25j*zbar"
                 " + (0.5 + 0.5j)*z^2 + (-3 + 1j)*zz + (2.25 - 1.5j)*zbar^2)"
                 " / (1+zz)^2")


@pytest.mark.parametrize("m", [1, 8, 64])
@pytest.mark.parametrize("expr", ["(1 - zz) / (1+zz)", SIX_MONOMIALS])
def test_toeplitz_entries_match_dense_matrix_bitwise(m, expr):
    """cp1-toeplitz emits from the band the (re, im) pairs of the dense
    toeplitz_matrix, bit for bit."""
    code, out = invoke(["cp1-toeplitz", "--m", str(m), "--expr", expr])
    assert code == 0
    entries = json.loads(out)["results"]["entries"]
    A = toeplitz_matrix(parse_observable(expr), make_context(m))
    assert np.array(entries, dtype=float).tobytes() \
        == A.reshape(-1).view(float).tobytes()


SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help(script):
    """Each script imports only names that starq still defines."""
    proc = subprocess.run([sys.executable, str(script), "--help"],
                          env=_subprocess_env(), capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
