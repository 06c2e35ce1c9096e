"""The CLI's contracts in two tables: every refusal, and every pinned report.

Each row of REFUSALS is an argv that starq must refuse: exit 2 (bad input)
or 3 (a computation that cannot finish), nothing on stdout, and one JSON
line {"error": ..., "message": ...} on stderr naming the row's error class,
and its message where the row gives one.  A row names the tier-1 test id
that runs it: tests/test_cli.py runs every row in-process through main(),
and each row marked for the process boundary again as `python -m
starq.cli`, through run_at_the_boundary, with numpy blocked for a no-numpy
row.  An argv token that begins with TMP/ names a path in a scratch
directory, where a row's file, if it has one, is written as TMP/input.

Each row of PINS is a report whose bytes are fixed: run_pin runs it as
`python -m starq.cli`, and again as its variant if it has one; both runs
must exit alike and print the same bytes, with the row's sha256 where it
has one.  Tier-1 runs every row under the test id it names.

This module imports only the standard library and parses on Python 3.10,
so `python tests/cli_contract.py` runs every row it can on a bare
interpreter.  It alone enforces a pin's peak-RSS ceiling: through exec, a
child reports its parent's high-water RSS, under tier-1 pytest's.
"""

import hashlib
import importlib.util
import json
import os
import runpy
import shlex
import subprocess
import sys
import tempfile
import threading
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

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
        # past MAX_GRID_NODES: refused before any allocation
        _row("argv12", "weights --n 1 --grid-nodes 100000000"),
        _row("argv14", "weights --n 1 --grid-nodes 4097", boundary="no-numpy"),
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
    # an eta that excises no grid point beyond eta/4 (1e-5), or every one
    # (1e153), gives three equal integrals: the run fails instead of
    # reporting its error estimate of 1e-12
    *_under("test_excision_radius_that_measures_nothing_exits_3", *(
        _row(f"--eta {eta}", f"weights --n 1 --eta {eta}",
             "IntegrationFailure", 3, f"eta {float(eta)!r} {_EXCISION}")
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


# test and id: as in Refusal; sha256: the report's digest (None: its runs
# need only agree); variant: "one-cpu", "timeout-28" or "--out", run beside
# the plain run (every usable CPU, the CLI's own OPENBLAS_THREAD_TIMEOUT,
# stdout), or None; numpy: whether the command loads it (else it runs with
# numpy blocked); ceiling: a peak RSS in MB; code: both runs' exit code.
Pin = namedtuple("Pin", "test id argv sha256 variant numpy ceiling code",
                 defaults=(None, False, None, 0))
_OPS = runpy.run_path(str(ROOT / "perfbench" / "ops.py"))
_ARGVS = {op["name"]: op["argv"]
          for op in _OPS["exact_tables"](1)[0] + _OPS["numeric"](1)[0]}
_EXPECTED = json.loads((ROOT / "perfbench" / "expected.json").read_text())


def _pin(test, id, argv, sha256=None, **kwargs):
    """A row of PINS: argv is a command line, or the name of a benchmark op,
    whose argv and pin (read from perfbench/) the row takes."""
    if argv in _ARGVS:
        return Pin(test, id, _ARGVS[argv], _EXPECTED[argv], **kwargs)
    return Pin(test, id, shlex.split(argv), sha256, **kwargs)


_BENCH = "test_star_reports_match_benchmark_pins"
# the one PINS test that tests/test_cli.py writes out, for its own asserts
CPU_COUNT_TEST = "test_weights_bytes_do_not_depend_on_the_cpu_count"
_IDLE = "test_blas_idle_policy_keeps_every_byte"
# the timeout decides only when an idle OpenBLAS worker sleeps
_TIMEOUTS = dict(variant="timeout-28", numpy=True)
_ONE_CPU = dict(variant="one-cpu", numpy=True)

PINS = [
    _pin(_BENCH, "readme-karabegov-flat-2-argv0", "readme-karabegov-flat-2"),
    _pin(_BENCH, "readme-bt-fs-2-argv1", "readme-bt-fs-2"),
    _pin(_BENCH, "bt-aniso-3-argv2", "bt-aniso-3"),
    # peaks of about 37.5, 36 and 43 MB (2 vCPU, numpy 2.4.6)
    _pin(_BENCH, "weights-n2-argv3", "weights-n2", ceiling=40, **_TIMEOUTS),
    _pin(_BENCH, "readme-kontsevich-argv4", "readme-kontsevich", ceiling=40,
         **_TIMEOUTS),
    _pin(_BENCH, "suite-bms-512", "suite-bms-512", ceiling=46, **_TIMEOUTS),
    *(_pin(_BENCH, op, op) for op in (
        "karabegov-fs-6", "bt-fs-4", "gammelgaard-aniso-2",
        "readme-toeplitz-8", "readme-enumerate-n2",
        "readme-enumerate-weighted")),
    # tables deep enough for the Karabegov recursion's own time to show
    _pin(_BENCH, "karabegov-fs-14", "star-karabegov --potential fs --order 14",
         "809c5ff4a53f623f14b2a07dd8d84b7a0ddeb137ba020efd570cd62b1bafed78"),
    _pin(_BENCH, "bt-fs-12", "star-bt --potential fs --order 12",
         "9c9639c43d45614096ce156a3afa5a8da5869e283495e233816461914f8adf26"),
    _pin(_BENCH, "karabegov-aniso-10",
         "star-karabegov --potential aniso --order 10",
         "0c463712ec9822c6cba4b39ac53b067b0ca54ce60353463af5acf3fcca60e202"),
    _pin(_BENCH, "bt-aniso-8", "star-bt --potential aniso --order 8",
         "067e049c24fba2b41b3a490c1a3b2e5e964fe62ddc1bf2823651ca561a42a3de"),
    # the n = 1 pair integral on a 200-node grid, in row blocks whose last
    # is 8 rows short, as full-grid products, sums and determinants give it
    _pin("test_pair_integral_with_a_short_last_row_block_keeps_its_pin", None,
         "weights --n 1 --grid-nodes 200",
         "74bacd595febd313e00ef914e2f4648cd6773347af0068ea47aaf61ca53d6a89",
         numpy=True),
    # weights forks nothing on one CPU; at --tol 1e-3 an internal-edge
    # graph fails, whose error estimate is 2.66e-3
    _pin(CPU_COUNT_TEST, "grid", "weights-n2", **_ONE_CPU),
    _pin(CPU_COUNT_TEST, "grid-failing", "weights --n 2 --tol 1e-3", code=3,
         **_ONE_CPU),
    # the run ends in os._exit, past the interpreter's teardown
    _pin("test_fast_exit_keeps_the_report", None, "toeplitz-512",
         variant="--out"),
    _pin(_IDLE, "cp1-suite", "cp1-suite --suite bms --m-list 8,16,32",
         **_TIMEOUTS),
    _pin(_IDLE, "weights", "weights --n 1", **_TIMEOUTS),
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


def run_cli(argv, directory, numpy=True, env=None, one_cpu=False,
            stdout_closed=False):
    """`python -m starq.cli argv` in a fresh interpreter, numpy blocked
    unless numpy, pinned to one CPU if one_cpu; its stdout (a closed pipe
    if stdout_closed) and stderr go to files in directory.  Its exit code,
    stdout, stderr, and wait4 peak RSS in MB and CPU seconds."""
    head = ["-m", "starq.cli"] if numpy else ["-c", _NUMPY_BLOCKED]
    cpu = {min(os.sched_getaffinity(0))}
    out, err = Path(directory, "stdout"), Path(directory, "stderr")
    with open(out, "wb") as fout, open(err, "wb") as ferr:
        if stdout_closed:
            read_end, write_end = os.pipe()
            os.close(read_end)
        proc = subprocess.Popen(
            [sys.executable, *head, *argv], stderr=ferr,
            stdout=write_end if stdout_closed else fout,
            env=env or subprocess_env(), preexec_fn=(
                lambda: os.sched_setaffinity(0, cpu)) if one_cpu else None)
        if stdout_closed:
            os.close(write_end)
    timer = threading.Timer(300, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out.read_bytes(), err.read_bytes(),
            usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime)


def run_at_the_boundary(row, directory):
    """breach() of row run through run_cli, numpy blocked for a no-numpy
    row."""
    code, out, err, _, _ = run_cli(
        place(row.argv, row.file, directory), directory,
        row.boundary != "no-numpy", stdout_closed=row.stdout_closed)
    return breach(row, code, out, err.decode())


def blas_env(timeout=None):
    """subprocess_env() with two OpenBLAS threads, as the benchmark runs
    them, and OPENBLAS_THREAD_TIMEOUT as given (None: unset)."""
    env = dict(subprocess_env(), OPENBLAS_NUM_THREADS="2",
               OPENBLAS_THREAD_TIMEOUT=timeout)
    return {name: value for name, value in env.items() if value is not None}


# One run of a pin (variant None: the plain run): its exit code, stdout,
# report (stdout or the --out file), stderr, wait4 peak RSS in MB and CPU s.
Run = namedtuple("Run", "variant code stdout report stderr rss_mb cpu_s")


def run_pin(row, directory):
    """row's plain Run through run_cli, then its variant's if it has one.
    A timeout-28 row runs both with two OpenBLAS threads; any other row
    inherits the caller's, so one CPU may mean one BLAS thread."""
    report = Path(directory, "report")
    runs = []
    for variant in dict.fromkeys([None, row.variant]):
        env = blas_env("28" if variant else None) \
            if row.variant == "timeout-28" else None
        code, out, err, rss_mb, cpu_s = run_cli(
            row.argv + ["--out", str(report)] * (variant == "--out"),
            directory, row.numpy, env, variant == "one-cpu")
        runs.append(Run(variant, code, out, report.read_bytes()
                        if variant == "--out" else out, err, rss_mb, cpu_s))
    return runs


def pin_breach(row, runs, ceilings=False):
    """How row's runs break its pin, or '' if they keep it; its peak-RSS
    ceiling counts only with ceilings."""
    for run in runs:
        if run.code != row.code or run.code == 0 and run.stderr \
                or run.variant == "--out" and run.stdout:
            return (f"{run.variant}: exit {run.code}, not {row.code}; stdout "
                    f"{run.stdout[:80]!r}; stderr {run.stderr[-300:]!r}")
        if ceilings and row.ceiling and run.rss_mb > row.ceiling:
            return f"{run.variant}: peak RSS {run.rss_mb:.1f} MB"
    digests = [hashlib.sha256(run.report).hexdigest() for run in runs]
    if len({(run.report, run.stderr) for run in runs}) > 1:
        return f"runs differ: {digests}"
    if row.sha256 not in (None, digests[0]):
        return f"sha256 {digests[0]}, not {row.sha256}"
    return ""


def _name(row):
    return row.test if row.id is None else f"{row.test}[{row.id}]"


def main():
    has_numpy = importlib.util.find_spec("numpy") is not None
    refusals = [row for row in REFUSALS if row.boundary == "no-numpy"]
    pins = [row for row in PINS if has_numpy or not row.numpy]
    print(f"{len(refusals)} of {len(REFUSALS)} refusals, each as python -m "
          f"starq.cli with numpy blocked; {len(pins)} of {len(PINS)} pins")
    broken = 0
    with tempfile.TemporaryDirectory() as tmp:
        for row in refusals:
            problem = run_at_the_boundary(row, tmp)
            broken += bool(problem)
            print(f"{_name(row)}: {shlex.join(row.argv)}"
                  f"{' (stdout closed)' * row.stdout_closed} -> "
                  f"{problem or f'exit {row.code}, one {row.error} line'}")
        for row in pins:
            runs = run_pin(row, tmp)
            problem = pin_breach(row, runs, ceilings=True)
            broken += bool(problem)
            print(f"{_name(row)}: {shlex.join(row.argv)} -> "
                  f"{problem or 'keeps its pin'}; peak RSS "
                  f"{max(run.rss_mb for run in runs):.1f} MB"
                  f"{f' (ceiling {row.ceiling})' * bool(row.ceiling)}; CPU "
                  f"{' '.join(f'{run.cpu_s:.2f}' for run in runs)} s")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
