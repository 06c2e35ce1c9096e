"""CLI: expression parsing, config handling, pipelines, determinism."""

import ast
import contextlib
import importlib
import io
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import starq
from cli_contract import (
    CPU_COUNT_TEST, PHI_N2, PINS, REFUSALS, Refusal, blas_env, breach,
    pin_breach, place, potential_file, run_at_the_boundary, run_cli, run_pin,
    subprocess_env,
)
from starq.cli import (
    BLAS_THREAD_TIMEOUT, COMMAND_FIELDS, MAX_DEGREE, MAX_LEVEL, MAX_N,
    MAX_ORDER, RUN_FIELDS, RunConfig, ValidationError, config_from_args, emit,
    load_config_file, main, run,
)
from starq.cp1 import toeplitz_matrix
from starq.symbols import (
    MAX_EXPONENT, MAX_POWER, MAX_PRODUCTS, ParseError, UnboundedSymbol,
    make_context, parse_observable,
)


def invoke(argv, buf=None):
    """Run the CLI in-process, capturing stdout bytes (into buf, if given)
    and the exit code."""
    buf = io.BytesIO() if buf is None else buf
    text = io.TextIOWrapper(buf, write_through=True)
    with contextlib.redirect_stdout(text):
        code = main(argv)
    text.detach()
    return code, buf.getvalue()


class _ClosedPipe(io.BytesIO):
    """A stdout whose reader has gone."""

    def write(self, data):
        raise BrokenPipeError(32, "Broken pipe")


def assert_fails(argv, capsys, error="ValidationError", code=2, message=None,
                 stdout=None):
    """The exit contract in-process: main(argv) returns code, prints nothing
    on stdout (or into stdout, if given) and one JSON line naming error on
    stderr, with message unless that is None."""
    got, out = invoke(argv, stdout)
    problem = breach(Refusal(None, argv, error, code, message), got, out,
                     capsys.readouterr().err)
    assert not problem, (argv, problem)


def _keeps_the_contract(row, tmp_path, capsys):
    """A REFUSALS row in-process, and as `python -m starq.cli` too if the
    row is marked for the process boundary."""
    assert_fails(place(row.argv, row.file, tmp_path), capsys, row.error,
                 row.code, row.message,
                 _ClosedPipe() if row.stdout_closed else None)
    if row.boundary:
        problem = run_at_the_boundary(row, tmp_path)
        assert not problem, (row.argv, problem)


def _keeps_its_pin(row, tmp_path, capsys=None):
    """The runs of a PINS row, plain and its variant's, which keep its pin."""
    runs = run_pin(row, tmp_path)
    problem = pin_breach(row, runs)
    assert not problem, (row.argv, problem)
    return runs


def _runs_its_rows(table, test, keeps):
    """The tier-1 test named test: one item per row of table filed under it,
    with the row's id, or one plain item for a row without one, each
    checked by keeps(row, tmp_path, capsys)."""
    rows = [row for row in table if row.test == test]
    if rows[0].id is None:
        def check(tmp_path, capsys):
            keeps(rows[0], tmp_path, capsys)
        return check

    @pytest.mark.parametrize("row", rows, ids=[row.id for row in rows])
    def check(row, tmp_path, capsys):
        keeps(row, tmp_path, capsys)
    return check


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
    """A stray character and an open parenthesis are edge inputs below."""
    with pytest.raises(UnboundedSymbol):
        parse_observable("z^3 / (1+zz)")
    with pytest.raises(ParseError):
        parse_observable("z / (1 - zz)")  # only (1+zz)^k denominators


# Edge inputs of the tokenizer, each with what parse_observable gives: its
# terms or "Error: message".
_NO_TERM = "expected a number, variable, or '(', found ''"
_UNBOUNDED_Z = "UnboundedSymbol: term z^1 zbar^0 (1+zz)^0 is unbounded"
_TOKEN_EDGES = [
    ("", f"ParseError: {_NO_TERM} (at position 0)"),
    ("   ", f"ParseError: {_NO_TERM} (at position 3)"),
    ("1", (((1 + 0j), 0, 0, 0),)),
    ("1 @", "ParseError: unexpected character '@' (at position 2)"),
    (".5", "ParseError: unexpected character '.' (at position 0)"),
    ("zbarz", "UnboundedSymbol: term z^1 zbar^1 (1+zz)^0 is unbounded"),
    ("\u00e9", "ParseError: unexpected character '\u00e9' (at position 0)"),
    ("1e400", "ParseError: number '1e400' is not finite (at position 0)"),
    ("z  ", _UNBOUNDED_Z),
    ("\t z \n", _UNBOUNDED_Z),
    ("2.5e-3j", ((0.0025j, 0, 0, 0),)),
    ("j", "ParseError: unexpected character 'j' (at position 0)"),
    ("1..2", "ParseError: unexpected character '.' (at position 2)"),
    ("zz^2 / (1+zz)^2", (((1 + 0j), 2, 2, 2),)),
    ("z + @", "ParseError: unexpected character '@' (at position 4)"),
    ("(1 + zz", "ParseError: expected ')', found '' (at position 7)"),
    ("3 z zbar / (1+zz)", (((3 + 0j), 1, 1, 1),)),
    ("1e5e", "ParseError: unexpected character 'e' (at position 3)"),
    ("z^-1",
     "ParseError: exponent must be a nonnegative integer (at position 2)"),
    ("1 +", f"ParseError: {_NO_TERM} (at position 3)"),
    ("z - z", ()),
    # digits are ASCII: Arabic-Indic and fullwidth digits are no number
    ("\u0661\u0660\u0660",
     "ParseError: unexpected character '\u0661' (at position 0)"),
    ("2\uff13",
     "ParseError: unexpected character '\uff13' (at position 1)"),
]


@pytest.mark.parametrize("text, parsed", _TOKEN_EDGES,
                         ids=[repr(text) for text, _ in _TOKEN_EDGES])
def test_tokenizer_edge_inputs(text, parsed):
    """Empty and blank text, trailing whitespace, a leading dot, names run
    together, a non-ASCII character or digit and an overflowing literal
    keep their parses and positioned messages."""
    try:
        result = parse_observable(text).terms
    except (ParseError, UnboundedSymbol) as exc:
        result = f"{type(exc).__name__}: {exc}"
    assert result == parsed


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
        assert_fails(argv, capsys, "ParseError")
    else:
        assert invoke(argv)[0] == 0
    assert time.perf_counter() - start < 1


QUAD_POWER = "((1+z+zbar+zz)^32)^{k}/(1+zz)^{c}"


def test_parse_bounds_total_products(capsys):
    """Every power stays within MAX_POWER, but ^4 of the 1089-term
    (1+z+zbar+zz)^32 needs about 16 M term products (7.5 s); it exits 2 with
    a positioned ParseError.  ^2, about 1.2 M products, still parses."""
    f = parse_observable(QUAD_POWER.format(k=2, c=64))
    assert len(f.terms) == 65 * 65
    # position 19 is the exponent of ^4
    assert_fails(["cp1-toeplitz", "--m", "4", "--expr",
                  QUAD_POWER.format(k=4, c=128)], capsys, "ParseError",
                 message=f"expression needs more than {MAX_PRODUCTS} term "
                         f"products (at position 19)")


def test_parse_budget_sums_every_product(monkeypatch):
    """The budget counts all products of one parse: a sum of factors that
    each stay far below it still runs out."""
    monkeypatch.setattr(starq.symbols, "MAX_PRODUCTS", 20_000)
    # (1+z+zbar+zz)^8: 4 * (1 + 4 + ... + 64) = 816 products; (1+zz)^8:
    # 2 * (1 + 2 + ... + 8) = 72
    one = "(1+z+zbar+zz)^8/(1+zz)^8"
    parse_observable("+".join([one] * 22))          # 19536
    with pytest.raises(ParseError, match="more than 20000 term products"):
        parse_observable("+".join([one] * 23))      # 20424


# ---------------------------------------------------------------------------
# config handling

def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[run]\nm = 4\nexpr = (1 - zz) / (1+zz)\ntol = 0.5\n")
    values = load_config_file(str(path), ("m", "expr", "tol"))
    assert values == {"m": 4, "expr": "(1 - zz) / (1+zz)", "tol": 0.5}


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[run]\nnot_a_key = 1\n")
    with pytest.raises(ValidationError):
        load_config_file(str(path), COMMAND_FIELDS["weights"])


def test_runconfig_validation():
    with pytest.raises(ValidationError):
        RunConfig(command="nope").validate()
    with pytest.raises(ValidationError):
        RunConfig(command="weights", grid_nodes=1).validate()
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
    blob = report["results"]
    assert blob["order"] == 2
    assert blob["convention"] == "karabegov_anti_wick"
    c1 = [c for c in blob["coefficients"] if c["k"] == 1][0]
    assert any(t["f_dzbar"] == [1] and t["g_dz"] == [1]
               for t in c1["terms"])


def test_weights_pipeline():
    report = run(RunConfig(command="weights", n=1))
    vals = [row["value"] for row in report["results"]["weights"]]
    assert len(vals) == 2
    assert all(abs(v - 0.5) < 1e-3 for v in vals)


def test_graphs_enumerate_pipeline():
    report = run(RunConfig(command="graphs-enumerate", n=2))
    assert report["results"]["count"] == 36
    report = run(RunConfig(command="graphs-enumerate", family="weighted",
                           wmax=2))
    assert report["results"]["count"] == 7


def test_weighted_graphs_enumerate_through_weight_3():
    """graphs-enumerate lists the 49 weighted graphs through total weight
    3; the table refuses weight 4 (test_resource_guard_exits_2[wmax-4])."""
    code, out = invoke(["graphs-enumerate", "--family", "weighted",
                        "--wmax", "3"])
    assert code == 0 and json.loads(out)["results"]["count"] == 49


def test_cp1_suite_pipeline():
    report = run(RunConfig(command="cp1-suite", suite="bms",
                           m_list=(8, 16, 32)))
    series = {s["name"]: s for s in report["results"]["series"]}
    assert abs(series["norm_gap"]["fit"]["slope"] + 1) < 0.1
    csv = emit(report, "csv").decode()
    assert csv.splitlines()[0] == \
        "series,m,value,fit_limit,fit_slope,fit_residual"
    assert len(csv.splitlines()) == 10


def test_radial_observable_norm_gap_is_nonnegative():
    """||T_f|| <= ||f||_inf, so norm_gap >= 0.  For f = 4/(1+zz) -
    4/(1+zz)^2, zero at z = 0 and 1 on |z| = 1, T_f is diagonal with largest
    entry 1 - 1/(m + 3), so the gap is about 1/(m + 3).  sup_norm took every
    observable without z or zbar for a constant and returned |f(0)| = 0:
    gaps -0.909 and -0.947."""
    code, out = invoke(["cp1-suite", "--suite", "bms", "--f-expr",
                        "4/(1+zz) - 4/(1+zz)^2", "--m-list", "8,16"])
    assert code == 0
    series = {s["name"]: s for s in json.loads(out)["results"]["series"]}
    for point in series["norm_gap"]["points"]:
        assert 0 <= point["value"] < 1 / (point["m"] + 3)
        assert abs(point["value"] - 1 / (point["m"] + 3)) < 1e-6


def test_well_formed_potential_file_loads(tmp_path):
    path = tmp_path / "potential.json"
    path.write_text(potential_file(phi=[dict(PHI_N2, n=1, terms=[])]))
    code, out = invoke(["star-karabegov", "--potential", str(path), "--order",
                        "2", "--max-degree", "12"])
    assert code == 0 and json.loads(out)["results"]


def test_star_bt_zero_phi_is_no_phi(tmp_path):
    # z zbar + (z zbar)^2 / 4 has non-constant scalar curvature, so from
    # order 3 on, a zero-phi file sent anywhere but the recursion shows.
    # One path for both files, since the report echoes it.
    path = tmp_path / "potential.json"
    argv = ["star-bt", "--potential", str(path), "--order", "3",
            "--max-degree", "12"]
    quartic = {"dz": [2], "dzbar": [2], "re": "1/4", "im": "0"}
    outs = []
    for phi in ((), [dict(PHI_N2, n=1, terms=[])] * 2):
        obj = json.loads(potential_file(phi=phi))
        obj["phi_minus1"]["terms"].append(quartic)
        path.write_text(json.dumps(obj))
        code, out = invoke(argv)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_bivector_dimension_above_cap_exits_2(tmp_path):
    """d_gamma walks d^(2n) labelings, so a bivector file of dimension
    above 2 * MAX_N, the real dimension of the largest potential, exits 2
    before any work (test_resource_guard_exits_2); one of dimension
    2 * MAX_N loads.  The table's caps are starq's."""
    import cli_contract
    from starq.graphs import load_bivector
    assert (cli_contract.MAX_DEGREE, cli_contract.MAX_N) == \
        (MAX_DEGREE, MAX_N)
    d = 2 * MAX_N
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps({"constant": [
        [(j > i) - (j < i) for j in range(d)] for i in range(d)]}))
    assert load_bivector(str(path)).d == d


def test_named_potential_takes_max_degree():
    code, out = invoke(["star-bt", "--potential", "fs", "--order", "2",
                        "--max-degree", "16"])
    assert code == 0
    assert json.loads(out)["inputs"]["config"]["max_degree"] == 16


@pytest.mark.parametrize("argv, results", [
    (["star-bt", "--potential", "fs", "--order", "2", "--max-degree", "8"],
     {"convention": "wick"}),
    (["star-gammelgaard", "--potential", "fs", "--order", "1",
      "--max-degree", "5"], {"label": "graph-expansion"}),
], ids=["star-bt", "star-gammelgaard"])
def test_least_degree_budget_keeps_a_term(argv, results):
    """D = 8 and 5 are the least budgets that keep a term; the table's
    degree-budget rows refuse each one below."""
    code, out = invoke(argv)
    assert code == 0
    assert results.items() <= json.loads(out)["results"].items()


# Each command starts from an argv that keeps it cheap (kontsevich at order
# 1, sphere levels <= 16); fragments of its own flags appended after it may
# override any of its options.  None of them asks for n = 2 weights.
_ARGV_BASES = [
    ["star-karabegov"], ["star-bt"], ["star-gammelgaard"],
    ["star-kontsevich", "--order", "1"], ["graphs-enumerate"],
    ["weights", "--grid-nodes", "40", "--tol", "0.5"],
    ["cp1-toeplitz"], ["cp1-berezin", "--m-list", "8,16"],
    ["cp1-suite", "--m-list", "8,16"],
]
_ARGV_FRAGMENTS = {
    "order": [["--order", "0"], ["--order", "1"], ["--order", "-1"],
              ["--order", "x"]],
    "potential": [["--potential", "fs"], ["--potential", "aniso"],
                  ["--potential", "nope"]],
    "max_degree": [["--max-degree", "4"], ["--max-degree", "-1"]],
    "n": [["--n", "0"], ["--n", "1"]],
    "family": [["--family", "weighted"]],
    "wmax": [["--wmax", "1"]],
    "m": [["--m", "1"], ["--m", "16"], ["--m", "0"]],
    "m_list": [["--m-list", "8"], ["--m-list", "16,8"], ["--m-list", "0"],
               ["--m-list", "x"]],
    "expr": [["--expr", ""], ["--expr", "1e400"], ["--expr", "1e300*1e300"],
             ["--expr", "-zbar"], ["--expr", "z^3/(1+zz)"],
             ["--expr", "z/(1-zz)"], ["--expr", "(1 - zz) / (1+zz)"],
             ["--expr", "2j*zz/(1+zz)^2"]],
    "f_expr": [["--f-expr", "z^2"]],
    "g_expr": [["--g-expr", "1e400"]],
    "at": [["--at", "nan"], ["--at", "inf"], ["--at", "0.5+0.2j"],
           ["--at", "1e200"], ["--at", "x"]],
    "suite": [["--suite", "berezin"]],
    "grid_nodes": [["--grid-nodes", "1"]],
    "eta": [["--eta", "nan"], ["--eta", "inf"], ["--eta", "0.5"]],
    "tol": [["--tol", "inf"], ["--tol", "1e-12"]],
    "format": [["--format", "csv"], ["--format", "xml"]],
    "f_poly": [["--f-poly", "[[[1],[1,0]]]"], ["--f-poly", "[[1e400,[1,0]]]"],
               ["--f-poly", "[[1,[2,1]]]"]],
    "g_poly": [["--g-poly", "[[[1,-1],[1,1]]]"], ["--g-poly", "[1]"]],
}
# Drawn for every command: an unknown flag, a flag without its value, and
# --m, which only cp1-toeplitz takes (and cp1-berezin must not read as
# --m-list).
_ARGV_REJECTED = [["--jobs", "2"], ["--tol"], ["--m", "16"]]


def _argv_draws(base):
    frags = [frag for name in COMMAND_FIELDS[base[0]]
             for frag in _ARGV_FRAGMENTS.get(name, ())] + _ARGV_REJECTED
    return st.tuples(st.just(base),
                     st.lists(st.sampled_from(frags), max_size=3))


@settings(max_examples=40, deadline=None)
@given(draw=st.sampled_from(_ARGV_BASES).flatmap(_argv_draws))
def test_any_argv_keeps_the_exit_contract(draw):
    """Exit 0, 2 or 3; a failure leaves one JSON line on stderr and nothing
    on stdout; stdout never carries NaN or Infinity."""
    base, extra = draw
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


def _flag(name):
    return "--" + name.replace("_", "-")


@pytest.mark.parametrize("command", COMMAND_FIELDS)
def test_each_command_takes_only_its_flags(command, capsys):
    """--help lists the command's own flags, --config and --out; every other
    RunConfig flag, even at its default value, exits 2 in parsing."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z-]+", capsys.readouterr().out))
    own = {_flag(name) for name in COMMAND_FIELDS[command]}
    assert listed == own | {"--help", "--config", "--out"}
    assert ("--format" in own) == (command in
                                   ("weights", "cp1-berezin", "cp1-suite"))
    for name, default in RUN_FIELDS:
        if name in ("command", "out") or _flag(name) in own:
            continue
        value = (",".join(map(str, default)) if isinstance(default, tuple)
                 else str(default))
        assert_fails([command, _flag(name), value], capsys)


def test_foreign_flag_is_refused_before_any_work(monkeypatch, capsys):
    """--format on a command without a CSV form exits 2 before the table is
    built (it used to compute for about 0.8 s first)."""
    import starq.karabegov

    def fail(*args):
        raise AssertionError("the table was built")
    monkeypatch.setattr(starq.karabegov, "karabegov_star", fail)
    assert_fails(["star-karabegov", "--potential", "fs", "--order", "10",
                  "--format", "csv"], capsys)


README = Path(__file__).resolve().parents[1] / "README.md"


def _recipes():
    """The `starq ...` lines of the README's Recipes section."""
    section = README.read_text().split("\n## Recipes\n")[1].split("\n## ")[0]
    lines = [line for line in section.splitlines()
             if line.startswith("starq ")]
    assert lines, "the README's Recipes section lists no starq line"
    return lines


@pytest.mark.parametrize("line", _recipes())
def test_readme_recipe_runs(line):
    """Each recipe runs through cli.main and exits 0: a CSV recipe prints
    its command's CSV header first, a JSON recipe a report of its command."""
    argv = shlex.split(line, comments=True)[1:]
    code, out = invoke(argv)
    assert code == 0, line
    if config_from_args(argv).format == "csv":
        header = {"cp1-suite": "series,m,value,fit_limit,fit_slope,"
                               "fit_residual",
                  "weights": "graph,value,error_estimate,samples_or_cells,"
                             "seed"}[argv[0]]
        assert out.decode().splitlines()[0] == header
    else:
        assert json.loads(out)["command"] == argv[0]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect, ROADMAP item 14: levels 507-533 print wrong numbers "
    "with exit 0"))
def test_berezin_symbol_of_one_is_one_at_levels_532_and_533():
    """The Berezin transform of the constant 1 is 1 at every level.  Today
    cp1-berezin prints 1.00773 at m = 532 and 0.98329 at m = 533, with exit
    0."""
    code, out = invoke(["cp1-berezin", "--expr", "1", "--at", "1",
                        "--m-list", "532,533"])
    assert code == 0
    values = [point["value"] for point in json.loads(out)["results"]["points"]]
    assert all(abs(value - 1) < 1e-12 for value in values), values


def test_readme_cli_lines_parse():
    """Each `starq ...` line of the README's CLI block names a command and
    only flags that command takes."""
    lines = [line for line in README.read_text().splitlines()
             if line.startswith("starq ")]
    assert len(lines) >= 10
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert config_from_args(argv).command == argv[0]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: starq" in capsys.readouterr().out


def _echo(cfg):
    return {name: getattr(cfg, name) for name, _ in RUN_FIELDS}


def test_flag_value_forms():
    """`--name=VALUE` reads as `--name VALUE`, and a repeated flag keeps its
    last value."""
    assert _echo(config_from_args(["star-bt", "--order=3"])) == \
        _echo(config_from_args(["star-bt", "--order", "3"]))
    assert config_from_args(["star-bt", "--order", "2", "--order",
                             "3"]).order == 3


def test_value_may_begin_with_a_dash():
    code, out = invoke(["cp1-berezin", "--at", "-0.5+0.2j",
                        "--m-list", "4,8"])
    assert code == 0
    assert json.loads(out)["inputs"]["config"]["at"] == "-0.5+0.2j"


def test_help_anywhere_prints_the_command_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["star-bt", "--order", "2", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: starq star-bt ")


def test_every_exception_has_one_exit_code():
    """main maps ValueError to exit 2 and ArithmeticError to exit 3, so each
    starq exception subclasses exactly one of the two.  The package root
    defines the shared ResourceGuard and NonFiniteResult, and every module
    that names ResourceGuard names that one class."""
    found = []
    mods = [starq] + [importlib.import_module(f"starq.{info.name}")
                      for info in pkgutil.iter_modules(starq.__path__)]
    for mod in mods:
        found += [obj for obj in vars(mod).values()
                  if isinstance(obj, type) and issubclass(obj, BaseException)
                  and obj.__module__ == mod.__name__]
    assert len(found) >= 11
    assert all(getattr(mod, "ResourceGuard", starq.ResourceGuard)
               is starq.ResourceGuard for mod in mods)
    for exc in found:
        assert issubclass(exc, ValueError) != \
            issubclass(exc, ArithmeticError), exc.__name__


# One cheap argv per command.
PIPELINES = [
    ["star-karabegov", "--potential", "flat", "--order", "2"],
    ["star-bt", "--potential", "flat", "--order", "2"],
    ["star-gammelgaard", "--potential", "flat", "--order", "2"],
    ["star-kontsevich", "--order", "1"],
    ["graphs-enumerate", "--n", "2"],
    ["weights", "--n", "1"],
    ["cp1-toeplitz", "--m", "4", "--expr", "(1 - zz) / (1+zz)"],
    ["cp1-berezin", "--expr", "(1 - zz) / (1+zz)", "--m-list", "8,16"],
    ["cp1-suite", "--suite", "bms", "--m-list", "8,16"],
]


def test_determinism_across_runs():
    """Three in-process runs of each command exit 0 with the same bytes."""
    for argv in PIPELINES:
        runs = [invoke(argv) for _ in range(3)]
        assert runs[0][0] == 0 and runs.count(runs[0]) == 3, argv


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


@pytest.mark.parametrize("row", [
    row for row in PINS if row.test == CPU_COUNT_TEST], ids=lambda row: row.id)
def test_weights_bytes_do_not_depend_on_the_cpu_count(row, tmp_path):
    """weights prints the same stdout and stderr and exits alike pinned to
    one CPU, where it forks nothing, and on every CPU this process may use
    (its PINS row); a failing run fails on its first failing graph in
    enumeration order, as one graph at a time would."""
    runs = _keeps_its_pin(row, tmp_path)
    if row.code:
        from starq.graphs import (
            IntegrationConfig, IntegrationFailure, enumerate_kgraphs,
            kontsevich_weight,
        )
        cfg = IntegrationConfig(tol=1e-3)
        with pytest.raises(IntegrationFailure) as first:
            for G in enumerate_kgraphs(2):
                kontsevich_weight(G, cfg)
        assert not breach(Refusal(None, row.argv, "IntegrationFailure", 3,
                                  str(first.value)), runs[0].code,
                          runs[0].stdout, runs[0].stderr.decode())


# Run each argv in turn as `python -m starq.cli` runs it, in one fresh
# interpreter, then print one JSON line, last on stdout, with the exit codes,
# every loaded module and the OPENBLAS_THREAD_TIMEOUT when numpy first
# loaded, which is when OpenBLAS reads it ([] if never).  os._exit raises
# SystemExit here, so that the line can still be printed.
_RUN_AS_MAIN = """\
import json, os, runpy, sys
argvs = json.loads(sys.argv[1])
timeout_at_numpy = []


class _Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not timeout_at_numpy:
            timeout_at_numpy.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))


def _exit(code):
    raise SystemExit(code)


sys.meta_path.insert(0, _Spy())
os._exit = _exit
codes = []
for argv in argvs:
    sys.argv = ["starq"] + argv
    code = None
    try:
        runpy.run_module("starq.cli", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
    codes.append(code)
print(json.dumps({"codes": codes, "modules": sorted(sys.modules),
                  "timeout_at_numpy": timeout_at_numpy}))
"""


def _run_as_main(argvs, env):
    """_RUN_AS_MAIN's line for the argvs."""
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_AS_MAIN, json.dumps(argvs)], env=env,
        capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout.splitlines()[-1])


_EXACT_CORE = ("starq.jets", "starq.formal", "starq.karabegov")
_NOT_EXACT = ("numpy", "starq.symbols", "starq.cp1", "starq.graphs")
_NO_NUMPY = ("numpy", *_EXACT_CORE)


_LOADS = [   # id, argv, exit code, modules absent, modules present
    ("star-karabegov-absent0", "star-karabegov --potential fs --order 2", 0,
     _NOT_EXACT, ()),
    ("star-bt-absent1", "star-bt --potential fs --order 2", 0, _NOT_EXACT, ()),
    ("star-gammelgaard-absent2",
     "star-gammelgaard --potential aniso --order 2", 0, ("numpy",), ()),
    ("graphs-enumerate-absent3", "graphs-enumerate --n 2", 0, _NO_NUMPY, ()),
    ("cp1-toeplitz-absent4", "cp1-toeplitz --m 8 --expr '(1 - zz) / (1+zz)'",
     0, _NO_NUMPY, ()),
    ("cp1-toeplitz-three-powers",
     "cp1-toeplitz --m 8 --expr '(2 - zbar^2*z) / (1+zz)^3'", 0, _NO_NUMPY,
     ()),
    ("star-kontsevich-absent5", "star-kontsevich --order 2", 0, _EXACT_CORE,
     ()),
    ("weights-absent6", "weights --n 1 --grid-nodes 40 --tol 0.5", 0,
     _EXACT_CORE, ()),
    ("cp1-berezin-absent7", "cp1-berezin --m-list 4,8", 0, _EXACT_CORE, ()),
    # the BMS suite, the default: sup_norm draws without numpy.random
    ("cp1-suite-absent8", "cp1-suite --m-list 4,8", 0, _EXACT_CORE,
     ("numpy",)),
    ("help", "--help", 0, _NO_NUMPY, ()),     # importing starq.cli alone
    ("config", "star-karabegov --config TMP/input", 0, _NOT_EXACT,
     ("configparser",)),
    # an eta whose square overflows is refused before numpy loads
    ("eta-square-overflows", "weights --n 1 --eta 1e155", 2, _NO_NUMPY, ()),
]


@pytest.mark.parametrize("argv, code, absent, present",
                         [row[1:] for row in _LOADS],
                         ids=[row[0] for row in _LOADS])
def test_commands_load_only_what_they_run(argv, code, absent, present,
                                          tmp_path):
    """Each argv exits as given, in its own interpreter.  No command loads
    configparser without --config, nor dataclasses, argparse, gettext,
    locale, a process or thread pool or numpy.random, nor inspect unless
    numpy loads it; the exact star-* commands load no numpy and no sphere
    or graph module, and the other commands no exact core; and no starq
    module imports starq.cli, which would then run a second time beside
    __main__."""
    # TMP/input is the --config row's file
    argv = place(shlex.split(argv), "[run]\norder = 1\n", tmp_path)
    report = _run_as_main([argv + ["--out", str(tmp_path / "report")]],
                          subprocess_env())
    assert report["codes"] == [code]
    loaded = set(report["modules"])
    assert {"starq", *present} <= loaded
    unwanted = {"dataclasses", "configparser", "argparse", "gettext",
                "locale", "multiprocessing", "concurrent.futures",
                "numpy.random", "starq.cli", *absent} - set(present)
    if "numpy" not in loaded:
        unwanted.add("inspect")
    assert not loaded & unwanted, sorted(loaded & unwanted)


def test_numeric_commands_do_not_import_exact_core(tmp_path):
    """The cp1-*, graphs-enumerate and star-kontsevich commands, run one
    after another in one interpreter, never load the exact core, nor a
    process or thread pool."""
    argvs = [shlex.split(argv) + ["--out", str(tmp_path / "report")]
             for argv in ("cp1-toeplitz --m 8", "cp1-berezin --m-list 4,8",
                          "cp1-suite --m-list 4,8", "graphs-enumerate --n 2",
                          "star-kontsevich --order 2")]
    report = _run_as_main(argvs, subprocess_env())
    assert report["codes"] == [0] * len(argvs)
    loaded = set(report["modules"]) & {
        *_EXACT_CORE, "multiprocessing", "concurrent.futures"}
    assert not loaded, sorted(loaded)


@pytest.mark.parametrize("caller, expect", [
    (None, BLAS_THREAD_TIMEOUT), ("28", "28"), ("4", "4")])
def test_caller_blas_thread_timeout_wins(caller, expect, tmp_path):
    """`python -m starq.cli` sets OPENBLAS_THREAD_TIMEOUT before numpy loads,
    unless its caller set one, which it keeps as is."""
    argv = ["cp1-suite", "--m-list", "4,8", "--out", str(tmp_path / "report")]
    report = _run_as_main([argv], blas_env(caller))
    assert report["codes"] == [0] and report["timeout_at_numpy"] == [expect]


def test_main_in_process_keeps_the_callers_environment(monkeypatch):
    """Only the `python -m starq.cli` process sets OPENBLAS_THREAD_TIMEOUT:
    a caller of main() in its own process keeps its environment."""
    monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
    code, _ = invoke(["cp1-suite", "--m-list", "4,8"])
    assert code == 0
    assert "OPENBLAS_THREAD_TIMEOUT" not in os.environ


def _referenced_names(tree, dotted_strings=False):
    """Every name a tree reads: each Name, each Attribute's attr, each part
    of an import alias and, with dotted_strings, each part of a string
    constant split on dots (how perfbench/spans.py names its targets).  A
    docstring that mentions a def is no reference."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif dotted_strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def test_library_keeps_only_what_runs():
    """Each module-level def and class of src/starq, and each public method
    of its classes, is read by a command or the benchmark driver, not only
    by the tests: some module-level statement or perfbench file refers to
    it, or another def that is itself kept does.  A method is matched by
    its name alone, so it is kept if any kept code reads an attribute of
    that name.  Found to a fixpoint, so a def read only by flagged defs is
    flagged too; the paper's checks that no command runs belong in
    tests/paper_checks.py."""
    root = Path(__file__).resolve().parents[1]
    body_refs = {}                 # (module, name) -> names its body reads
    live = set()                   # names read outside the library's defs
    for path in sorted((root / "src" / "starq").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            name = getattr(node, "name", "")
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not (name.startswith("__") and name.endswith("__")):
                if isinstance(node, ast.ClassDef):
                    methods = [part for part in node.body
                               if isinstance(part, ast.FunctionDef)
                               and not part.name.startswith("_")]
                    for part in methods:
                        body_refs[path.stem, f"{name}.{part.name}"] = \
                            _referenced_names(part) - {part.name}
                    # the class keeps what the rest of its body reads
                    node.body = [part for part in node.body
                                 if part not in methods]
                body_refs[path.stem, name] = _referenced_names(node) - {name}
            else:
                live |= _referenced_names(node)
    for path in sorted((root / "perfbench").glob("*.py")):
        live |= _referenced_names(ast.parse(path.read_text()),
                                  dotted_strings=True)
    flagged = set()
    while True:
        read = live.union(*(refs for key, refs in body_refs.items()
                            if key not in flagged))
        unread = {key for key in body_refs
                  if key not in flagged and key[1].split(".")[-1] not in read}
        if not unread:
            break
        flagged |= unread
    assert not flagged, sorted(flagged)


def test_library_never_builds_a_record_past_its_checks():
    """A record's _make and _replace build it without its __new__, so past
    the checks there (KGraph's targets, IntegrationConfig's bounds,
    ObservableFn's boundedness): src/starq never reads them."""
    root = Path(__file__).resolve().parents[1]
    readers = {}
    for path in sorted((root / "src" / "starq").glob("*.py")):
        names = _referenced_names(ast.parse(path.read_text()))
        if names & {"_make", "_replace"}:
            readers[path.name] = sorted(names & {"_make", "_replace"})
    assert not readers, readers


# The private names of src/starq that the tests may still read.  The list
# only shrinks: a name leaves it once no test reads it, and the bound in the
# guard falls with it.  The weight cache is emptied so that a run
# integrates again, the graph operator is doubled to show the Gammelgaard
# cross-check failing, and the recursion's operators and commutators are
# checked order by order against right multiplication.  Every other test
# reads starq through its contract: reports, exit codes, stated bounds and
# public calls.  One string, so the list reads none of them.
PRIVATE_READS_ALLOWED = frozenset(
    "_WEIGHT_CACHE _ggraph_operator _anti_wick_ops _commutator "
    "_commutator_sum".split())


def private_reads(root):
    """{test file: the private names of src/starq it reads}, over
    tests/test_*.py, paper_checks.py and cli_contract.py.  A private name is
    a module-level def, class or assignment of src/starq with one leading
    underscore; a file reads it as an attribute, in an import, or as a
    string constant or one of its dot-separated parts, unless the file
    defines that name itself."""
    private = set()
    for path in (root / "src" / "starq").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [part.id for target in node.targets
                         for part in ast.walk(target)
                         if isinstance(part, ast.Name)]
            else:
                continue
            private.update(name for name in names if name.startswith("_")
                           and not name.startswith("__"))
    tests = root / "tests"
    reads = {}
    for path in sorted(tests.glob("test_*.py")) + [
            tests / "paper_checks.py", tests / "cli_contract.py"]:
        tree = ast.parse(path.read_text())
        own, read = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                           ast.Store):
                own.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.update(node.name.split("."))
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                read.update(node.value.split("."))
        if read & private - own:
            reads[path.name] = read & private - own
    return reads


def test_tests_read_only_the_allowed_private_names():
    """No test reads a private name of src/starq off PRIVATE_READS_ALLOWED,
    and each name on it is still read by some test."""
    reads = private_reads(Path(__file__).resolve().parents[1])
    assert len(PRIVATE_READS_ALLOWED) <= 5
    flagged = {name: files for name, files in (
        (name, sorted(f for f, names in reads.items() if name in names))
        for name in set().union(*reads.values()) - PRIVATE_READS_ALLOWED)}
    assert not flagged, flagged
    assert set().union(*reads.values()) == PRIVATE_READS_ALLOWED


def pin_lists(root):
    """The files of tests/*.py but cli_contract.py, and the CI workflow, that
    keep a pin of a CLI report: a test module that quotes expected.json or
    imports from one that does, or that names starq.cli or cli_contract and
    holds a 64-hex digest; the workflow, if it holds a hex digest or a
    python -c script of more than one line."""
    texts = {path.name: path.read_text()
             for path in (root / "tests").glob("*.py")}
    readers = {name[:-3] for name, text in texts.items()
               if re.search(r"expected\.json[\"']", text)} - {"cli_contract"}
    found = {name for name, text in texts.items() if name[:-3] in readers
             or any(re.search(rf"^\s*(from|import) {reader}\b", text, re.M)
                    for reader in readers)
             or re.search(r"starq\.cli|cli_contract", text)
             and re.search(r"\b[0-9a-f]{64}\b", text)}
    if re.search(r"\b[0-9a-f]{16,}\b|python3? -c ['\"]\s*\n",
                 (root / ".github" / "workflows" / "ci.yml").read_text()):
        found.add("ci.yml")
    return found - {"cli_contract.py"}


def test_only_the_contract_table_keeps_report_pins():
    """Every pin of a CLI report is a row of PINS in tests/cli_contract.py:
    no other test module reads perfbench/expected.json or holds a report's
    sha256, and CI holds no digest and no script of its own.  The library
    digests of tests/test_karabegov.py are no CLI report's."""
    assert not pin_lists(Path(__file__).resolve().parents[1])


def test_no_two_tests_share_a_body():
    """Each check has one home: no two test_* functions of tests/ have the
    same body, compared as an AST dump without the docstring."""
    homes = {}
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) \
                    and node.name.startswith("test_"):
                body = node.body[ast.get_docstring(node) is not None:]
                homes.setdefault(ast.dump(ast.Module(body, [])), []).append(
                    f"{path.name}::{node.name}")
    assert not [names for names in homes.values() if len(names) > 1]


def test_help_exits_0_at_the_process_boundary(tmp_path):
    code, out, err, _, _ = run_cli(["star-bt", "--help"], tmp_path)
    assert code == 0 and err == b""
    assert out.startswith(b"usage: starq star-bt ")


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


# Every row of the two tables runs under the tier-1 test id it names; no
# name may shadow a test defined above, but for CPU_COUNT_TEST, which runs
# its own rows.
for _table, _keeps in ((REFUSALS, _keeps_the_contract),
                       (PINS, _keeps_its_pin)):
    assert len({(row.test, row.id) for row in _table}) == len(_table)
    for _test in dict.fromkeys(row.test for row in _table):
        assert _test not in globals() or _test == CPU_COUNT_TEST, _test
        globals().setdefault(_test, _runs_its_rows(_table, _test, _keeps))
