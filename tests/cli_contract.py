"""The exit contract of the starq CLI: every refusal, in one table.

Each row of REFUSALS is an argv that starq must refuse: exit 2 (bad input)
or 3 (a computation that cannot finish), nothing on stdout, and one JSON
line {"error": ..., "message": ...} on stderr naming the row's error class,
and its message where the row gives one.  A row names the tier-1 test id
that runs it: tests/test_cli.py runs every row in-process through main(),
and each row marked for the process boundary again as `python -m
starq.cli`, through run_at_the_boundary, with numpy blocked for a no-numpy
row.  An argv token that begins with TMP/ names a path in a scratch
directory, where a row's file, if it has one, is written as TMP/input.

This module imports only the standard library and parses on Python 3.10,
so it runs on a bare interpreter:

    python tests/cli_contract.py    # the no-numpy rows, at the boundary
"""

import json
import os
import shlex
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# test: the tier-1 test, id: its parameter id (None: an unparametrized test
# of one row); boundary: None (in-process only), "numpy" or "no-numpy".
Refusal = namedtuple(
    "Refusal", "id argv error code message file boundary stdout_closed test",
    defaults=("ValidationError", 2, None, None, None, False, None))


def _row(id, argv, *args, **kwargs):
    return Refusal(id, shlex.split(argv), *args, **kwargs)


def _under(test, *rows):
    return [row._replace(test=test) for row in rows]


# Caps of src/starq that a row steps just past: cli.MAX_DEGREE and cli.MAX_N.
MAX_DEGREE, MAX_N = 64, 6
_BIG = "1" + "0" * 400            # 10**400 in JSON digits, beyond any float
_BEYOND = "an integer beyond the float range"
PHI_N2 = {"n": 2, "max_degree": 12,
          "terms": [{"dz": [1, 0], "dzbar": [1, 0], "re": "1", "im": "0"}]}


def potential_file(n=1, max_degree=12, dz=(1,), re="1", phi=(), dzbar=(1,)):
    """An n = 1 potential file z zbar, with fields of the jet replaced."""
    term = {"dz": list(dz), "dzbar": list(dzbar), "re": re, "im": "0"}
    jet = {"n": n, "max_degree": max_degree, "terms": [term]}
    return json.dumps({"phi_minus1": jet, "phi": list(phi)})


def _diagonal_potential(n):
    """The potential file of z_1 zbar_1 + ... + z_n zbar_n."""
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    terms = [{"dz": e, "dzbar": e, "re": "1", "im": "0"} for e in unit]
    return json.dumps({"phi_minus1": {"n": n, "max_degree": 12,
                                      "terms": terms}})


_MALFORMED_POTENTIALS = {
    "exponent-float": potential_file(dz=[1.5]),
    "n-zero": potential_file(n=0, dz=[]),
    "n-string": potential_file(n="1"),
    "max-degree-negative": potential_file(max_degree=-1),
    "exponent-negative": potential_file(dz=[-1]),
    "exponents-too-long": potential_file(dz=[1, 0]),
    "phi-other-n": potential_file(phi=[PHI_N2]),
    "phi-other-max-degree": potential_file(
        phi=[dict(PHI_N2, n=1, max_degree=10, terms=[])]),
    "zero-denominator": potential_file(re="1/0"),
    # z zbar with 1, then again with 1/2: no copy may silently win
    "repeated-monomial": json.dumps({"phi_minus1": {
        "n": 1, "max_degree": 12, "terms": [
            {"dz": [1], "dzbar": [1], "re": "1", "im": "0"},
            {"dz": [1], "dzbar": [1], "re": "1/2", "im": "0"}]}}),
}
_HALF_SPHERE = "'(1 - zz) / (1+zz)'"
_OVERFLOW = dict(error="NonFiniteResult", code=3, boundary="numpy")
_EXCISION = "excises the same points as eta/4, so the Richardson step in " \
            "eta measures nothing"

REFUSALS = [
    *_under(
        "test_invalid_numeric_options_exit_2",
        _row("argv0", "weights --n 1 --method mc --samples 0"),
        _row("argv1", "weights --n 1 --tol nan"),
        _row("argv2", "weights --n 1 --tol inf"),
        _row("argv3", "weights --n 1 --tol 0"),
        _row("argv4", "weights --n 1 --tol=-1e-3"),
        _row("argv5", "weights --n 1 --eta 0"),
        _row("argv6", "weights --n 1 --eta -0.1"),
        _row("argv7", "weights --n 1 --grid-nodes 1"),
        _row("argv8", "star-kontsevich --f-poly [[1,[2]]]"),
        _row("argv9", "weights --n 1 --eta inf"),
        _row("argv10", "star-kontsevich --f-poly [[1e400,[1,0]]]"),
        # one sample has no spread: its error estimate of 1e-12 passed any
        # --tol
        _row("argv11", "weights --n 1 --method mc --samples 1",
             boundary="no-numpy"),
        # past MAX_GRID_NODES and MAX_SAMPLES: refused before any allocation
        _row("argv12", "weights --n 1 --grid-nodes 100000000"),
        _row("argv13", "weights --n 1 --method mc --samples 100000000000000"),
        _row("argv14", "weights --n 1 --grid-nodes 4097", boundary="no-numpy"),
        _row("argv15", "weights --n 1 --method mc --samples 2000001"),
        # a negative seed: a grid run stamped it on every row, and numpy's
        # SeedSequence refused it in a Monte Carlo run, naming no flag
        _row("argv16", "weights --n 1 --seed -1", boundary="no-numpy"),
        _row("argv17",
             "weights --n 1 --method mc --samples 1000 --tol 1 --seed -1"),
        # a negative degree budget or graph weight is refused, not run
        _row("argv18",
             "star-gammelgaard --potential fs --order 0 --max-degree -1"),
        _row("argv19", "graphs-enumerate --family weighted --wmax -1"),
        # argv outside the grammar
        _row("bare-dashes", "cp1-toeplitz -- --m 1"),
        _row("no-value", "star-bt --order"),
        _row("flag-as-value", "star-bt --order --max-degree 12"),
        _row("one-dash", "star-bt -order 2"),
        _row("stray-token", "star-bt 2"),
        _row("command-not-first", "--order 2 star-bt"),
        _row("empty", "")),
    *_under(
        "test_malformed_input_exit_2",
        _row("potential-without-phi_minus1",
             "star-karabegov --potential TMP/input", file='{"phi": []}'),
        _row("alpha-without-constant",
             "star-kontsevich --alpha-path TMP/input",
             file='{"alpha": [[0, 1]]}'),
        _row("alpha-not-square", "star-kontsevich --alpha-path TMP/input",
             file='{"constant": [[0, 1]]}'),
        _row("poly-not-terms", "star-kontsevich --f-poly [1]"),
        _row("config-without-section", "weights --config TMP/input",
             file="n = 1\n"),
        _row("unknown-flag", "star-bt --jobs 2"),
        _row("config-key-of-another-command", "star-bt --config TMP/input",
             file="[run]\neta = 0.7\n"),
        # no abbreviations: --m is not --m-list, --ord is not --order
        _row("flag-not-m-list", "cp1-berezin --m 16"),
        _row("abbreviated-flag", "star-bt --ord 3"),
        _row("abbreviated-flag-pot", "star-bt --pot fs"),
        _row("unknown-command", "nope"),
        _row("flag-without-value", "weights --n 1 --tol -1e-3"),
        _row("empty-expr", "cp1-toeplitz --expr ''", "ParseError"),
        _row("poly-coeff-pair-too-short",
             "star-kontsevich --f-poly [[[1],[1,0]]]"),
        _row("expr-literal-not-finite", "cp1-toeplitz --m 1 --expr 1e400",
             "ParseError"),
        _row("expr-non-ascii-digit", "cp1-toeplitz --m 2 --expr \u0661",
             "ParseError"),
        _row("expr-unbounded", "cp1-berezin --expr z^5", "UnboundedSymbol"),
        _row("at-not-finite", "cp1-berezin --at nan"),
        # bool is a subclass of int, so JSON booleans need their own check
        _row("poly-exponent-bool",
             "star-kontsevich --f-poly [[1,[true,false]]]"),
        _row("poly-coeff-bool", "star-kontsevich --g-poly [[true,[1,1]]]"),
        _row("poly-coeff-pair-bool",
             "star-kontsevich --g-poly [[[1,false],[1,1]]]"),
        _row("alpha-bool", "star-kontsevich --alpha-path TMP/input",
             file='{"constant": [[false, true], [-1, 0]]}')),
    # a bivector entry that is not finite is named as such, not reported as
    # a bivector that fails to be antisymmetric
    *_under("test_non_finite_bivector_entry_exit_2", *(
        _row(entry, "star-kontsevich --order 1 --alpha-path TMP/input",
             message=f"bivector entry [0][1] = {float(entry)!r} is not finite",
             file='{"constant": [[0, %s], [-1, 0]]}' % entry,
             boundary="no-numpy" if entry == "NaN" else None)
        for entry in ("NaN", "Infinity", "-Infinity"))),
    # a JSON integer too large for a float exited 3 with OverflowError once
    # arithmetic reached it
    *_under(
        "test_json_integer_beyond_the_float_range_exits_2",
        _row("bivector-entry", "star-kontsevich --order 1 --alpha-path "
             "TMP/input", file=f'{{"constant": [[0, {_BIG}], [-{_BIG}, 0]]}}',
             message=f"bivector entry [0][1] is {_BEYOND}",
             boundary="no-numpy"),
        _row("poly-coeff", f"star-kontsevich --order 1 --f-poly "
             f"[[{_BIG},[2,1]]]", message=f"coefficient of [2, 1] has "
             f"{_BEYOND}", boundary="no-numpy"),
        _row("poly-coeff-pair-part", f"star-kontsevich --order 1 --f-poly "
             f"[[[1,{_BIG}],[2,1]]]", message=f"coefficient of [2, 1] has "
             f"{_BEYOND}")),
    # an eta that excises no grid point or sample beyond eta/4 (1e-5), or
    # every one (1e153), gives three equal integrals: the run fails instead
    # of reporting its error estimate of 1e-12
    *_under("test_excision_radius_that_measures_nothing_exits_3", *(
        _row(f"{flags}--eta {eta}", f"weights --n 1 {flags}--eta {eta}",
             "IntegrationFailure", 3, f"eta {float(eta)!r} {_EXCISION}")
        for flags in ("", "--method mc --tol 1 ")
        for eta in ("1e-5", "1e153"))),
    # refused as input before numpy loads: the excision's eta ** 2 raised
    # OverflowError (exit 3)
    *_under("test_eta_with_an_overflowing_square_exits_2_before_numpy",
            _row(None, "weights --n 1 --eta 1e155",
                 message="eta must be > 0 with a finite square",
                 boundary="no-numpy")),
    *_under("test_malformed_potential_file_exit_2", *(
        _row(f"{id}-{command}", f"{command} --potential TMP/input --order 2 "
             f"--max-degree 12", file=content,
             boundary="no-numpy" if (id, command) == (
                 "repeated-monomial", "star-karabegov") else None)
        for id, content in _MALFORMED_POTENTIALS.items()
        for command in ("star-karabegov", "star-bt"))),
    # the Berezin-Toeplitz product depends on omega alone
    *_under("test_star_bt_rejects_nonzero_phi", _row(
        None, "star-bt --potential TMP/input --order 2 --max-degree 12",
        "ValueError", file=potential_file(phi=[json.loads(potential_file(
            re="1/3"))["phi_minus1"]]))),
    # star-bt once took log det g before any check and named the error
    # ZeroConstantTerm
    *_under("test_degenerate_metric_exits_3", *(
        _row(f"{id}-{command}", f"{command} --potential TMP/input --order 1",
             "DegenerateMetric", 3, file=content,
             boundary="no-numpy" if (id, command) == (
                 "z2-zbar2", "star-bt") else None)
        for id, content in (
                ("z2-zbar2", potential_file(dz=[2], dzbar=[2])),
                ("z1-zbar1-n2", json.dumps({"phi_minus1": PHI_N2})))
        for command in ("star-karabegov", "star-bt", "star-gammelgaard"))),
    # a potential file fixes its own degree budget, and the metric's
    # determinant expands n! permutations
    *_under("test_potential_file_limits_exit_2", *(
        _row(f"{id}-{command}", f"{command} --potential TMP/input --order 1 "
             f"{extra}", error, file=content)
        for id, content, extra, error in (
            ("file-max-degree-above-cap", potential_file(
                max_degree=MAX_DEGREE + 1), "", "ValidationError"),
            ("max-degree-not-the-file's", potential_file(), "--max-degree 20",
             "ValidationError"),
            ("n-above-cap", _diagonal_potential(MAX_N + 1), "",
             "ResourceGuard"))
        for command in ("star-karabegov", "star-bt"))),
    # a repeated level used to reach np.polyfit, whose RankWarnings went to
    # stderr ahead of an exit-3 error line
    *_under(
        "test_repeated_level_exits_2_with_one_stderr_line",
        _row("argv0", "cp1-suite --suite bms --m-list 8,8", boundary="numpy"),
        _row("argv1", "cp1-suite --suite berezin --m-list 8,16,8",
             boundary="numpy")),
    *_under("test_out_path_that_cannot_be_opened_exits_2",
            _row(None, "cp1-toeplitz --m 2 --out TMP/missing/x.json",
                 "FileNotFoundError")),
    *_under("test_exit_codes_and_stderr",
            _row(None, "weights --n 1 --grid-nodes 40 --tol 1e-9",
                 "IntegrationFailure", 3)),
    # an overflowing sphere run, with or without numpy, whose floating-point
    # warnings stay off stderr, and a grid quadrature that measures nothing
    *_under(
        "test_overflow_argvs_keep_the_exit_contract",
        _row("argv0-NonFiniteResult",
             "cp1-toeplitz --m 8 --expr 1e300*1e300/(1+zz)",
             "NonFiniteResult", 3, boundary="no-numpy"),
        _row("argv1-NonFiniteResult",
             "cp1-toeplitz --m 8 --expr 1e200*z*1e200/(1+zz)", **_OVERFLOW),
        _row("argv2-NonFiniteResult",
             "cp1-suite --m-list 4,8 --f-expr 1e308*zz/(1+zz) --g-expr 0",
             **_OVERFLOW),
        _row("argv3-ZeroDivisionError", "cp1-toeplitz --m 534",
             **dict(_OVERFLOW, error="ZeroDivisionError")),
        # an infinite coefficient: its Laplacian overflows (reduce_terms),
        # and for a constant the Berezin defect is inf - inf, which max
        # would drop
        _row("argv4-NonFiniteResult", "cp1-suite --suite berezin --m-list 4 "
             "--f-expr 1e300*1e300/(1+zz)", **_OVERFLOW),
        _row("argv5-NonFiniteResult",
             "cp1-suite --suite berezin --m-list 4 --f-expr 1e300*1e300",
             **_OVERFLOW),
        # an infinite Toeplitz matrix stops before the SVD (operator_norm)
        _row("argv6-NonFiniteResult",
             "cp1-suite --m-list 4 --f-expr 1e300*1e300/(1+zz) --g-expr 0",
             **_OVERFLOW),
        # finite coefficients whose Laplacian overflows to inf - inf
        _row("argv7-NonFiniteResult", "cp1-suite --suite berezin --m-list 4,8 "
             "--f-expr 1e308*(1-zz)/(1+zz)", **_OVERFLOW),
        *(_row(f"argv{i}-IntegrationFailure", f"weights --n 1 --eta {eta}",
               **dict(_OVERFLOW, error="IntegrationFailure"))
          for i, eta in ((8, "1e-5"), (9, "1e153"))),
        _row("cp1-berezin-at-1e200",
             f"cp1-berezin --expr {_HALF_SPHERE} --at 1e200 --m-list 8",
             **_OVERFLOW)),
    # an argument error ends in os._exit too
    *_under("test_unknown_flag_exits_2_at_the_process_boundary",
            _row(None, "star-bt --jobs 2", boundary="no-numpy")),
    # a reader that has gone: not a BrokenPipeError traceback and exit 1
    *_under("test_closed_stdout_exits_2_with_one_stderr_line",
            _row(None, f"cp1-toeplitz --m 512 --expr {_HALF_SPHERE}",
                 "BrokenPipeError", boundary="no-numpy", stdout_closed=True)),
    # below the least budget that keeps a term: star-bt at order 2 keeps
    # degrees through D - 8, and star-gammelgaard's order-1 cross-check
    # window D - (N + 2) - 2 falls below degree 0
    *_under("test_star_bt_degree_budget", *(
        _row(f"{d}-2", f"star-bt --potential fs --order 2 --max-degree {d}",
             "BudgetExceeded") for d in (6, 7))),
    *_under("test_star_gammelgaard_degree_budget", *(
        _row(f"{d}-2", "star-gammelgaard --potential fs --order 1 "
             f"--max-degree {d}", "BudgetExceeded",
             boundary="no-numpy" if d == 3 else None) for d in (3, 4))),
    # graphs past weight 3, and a bivector above the real dimension of the
    # largest potential, which d_gamma would walk over d^(2n) labelings
    *_under(
        "test_resource_guard_exits_2",
        _row("wmax-4", "graphs-enumerate --family weighted --wmax 4",
             "ResourceGuard"),
        _row("bivector-dimension-above-cap",
             "star-kontsevich --order 1 --alpha-path TMP/input",
             "ResourceGuard", file=json.dumps({"constant": [
                 [(j > i) - (j < i) for j in range(2 * MAX_N + 1)]
                 for i in range(2 * MAX_N + 1)]}))),
]


def place(argv, file, directory):
    """argv with each TMP/ token placed in directory, after writing file,
    when given, to TMP/input."""
    if file is not None:
        Path(directory, "input").write_text(file)
    return [os.path.join(directory, token[4:]) if token.startswith("TMP/")
            else token for token in argv]


def breach(row, code, out, err):
    """How a run that exited code with stdout bytes out and stderr text err
    breaks row's contract, or '' if it keeps it."""
    lines = err.splitlines()
    if (code, out, len(lines)) != (row.code, b"", 1):
        return f"exit {code}, not {row.code}; stdout {out[:80]!r}; {err!r}"
    try:
        blob = json.loads(lines[0])
    except ValueError:
        blob = None
    if not isinstance(blob, dict) or set(blob) != {"error", "message"} \
            or blob["error"] != row.error \
            or row.message not in (None, blob["message"]):
        return f"{lines[0]!r}, not {row.error}: {row.message or '...'}"
    return ""


def subprocess_env():
    """The environment with this checkout's src on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


# `python -m starq.cli`, with every import of numpy failing.
_NUMPY_BLOCKED = ("import runpy, sys; sys.modules['numpy'] = None; "
                  "runpy.run_module('starq.cli', run_name='__main__', "
                  "alter_sys=True)")


def run_at_the_boundary(row, directory):
    """breach() of row run as `python -m starq.cli` in a fresh interpreter,
    numpy blocked for a no-numpy row, its stdout a closed pipe if the row
    says so; files go to directory."""
    head = (["-c", _NUMPY_BLOCKED] if row.boundary == "no-numpy"
            else ["-m", "starq.cli"])
    stdout = subprocess.PIPE
    if row.stdout_closed:
        read_end, stdout = os.pipe()
        os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, *head, *place(row.argv, row.file, directory)],
            stdout=stdout, stderr=subprocess.PIPE, env=subprocess_env(),
            timeout=120)
    finally:
        if row.stdout_closed:
            os.close(stdout)
    return breach(row, proc.returncode, proc.stdout or b"",
                  proc.stderr.decode())


def main():
    rows = [row for row in REFUSALS if row.boundary == "no-numpy"]
    print(f"{len(rows)} of {len(REFUSALS)} refusals, each as python -m "
          f"starq.cli with numpy blocked")
    broken = 0
    with tempfile.TemporaryDirectory() as tmp:
        for row in rows:
            problem = run_at_the_boundary(row, tmp)
            broken += bool(problem)
            test = row.test if row.id is None else f"{row.test}[{row.id}]"
            print(f"{test}: {shlex.join(row.argv)}"
                  f"{' (stdout closed)' * row.stdout_closed} -> "
                  f"{problem or f'exit {row.code}, one {row.error} line'}")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
