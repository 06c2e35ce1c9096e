"""Command-line front end: argument and config-file handling, dispatch to
the library, and the JSON/CSV emission of reports.

Exit codes follow the exception's base class: 0 success, 2 for a ValueError
or OSError (rejected input: every starq input error is a ValueError), 3 for
an ArithmeticError (every starq tolerance, cross-check and singularity error).
Errors, argument errors included, are emitted as one JSON line on stderr;
stdout (or --out) carries the primary artifact.  Reports are byte-identical
for identical configs.

Each command loads only what it runs, from the branch of run that handles
it: the input loaders and result builders live beside the code they feed
(karabegov.load_potential; graphs.load_bivector, load_poly and
integration_config; symbols.parse_observable; cp1.command_results).  cp1 and
the weight quadrature load numpy, which the exact star-* commands and
cp1-toeplitz never need; the exact core (jets, formal, karabegov) loads only
for the star-* commands; configparser loads only for --config.  No starq
module imports this one, which `python -m starq.cli` runs as __main__; run
so, it sets OPENBLAS_THREAD_TIMEOUT to BLAS_THREAD_TIMEOUT unless its caller
set one.  COMMAND_FIELDS gives each command its flags and config-file keys.
"""

import json
import os
import sys
from collections import namedtuple

from . import (MAX_N, QUADRATURE_FIELDS, NonFiniteResult, ResourceGuard,
               ValidationError, __version__, check_quadrature)

# Largest sphere level m that --m and --m-list accept: the Toeplitz matrix has
# (m+1)^2 entries, allocated before anything else can fail.
MAX_LEVEL = 2048

# Largest --order and degree budget of the exact pipelines; the derived
# default budget 3N + 6 stays within MAX_DEGREE for every order, and a
# potential file's max_degree is held to it too.
MAX_ORDER = 16
MAX_DEGREE = 64

# OPENBLAS_THREAD_TIMEOUT of a `python -m starq.cli` process, unless its
# caller set one.  numpy's OpenBLAS keeps a worker thread that busy-waits
# 2^28 cycles (about 0.1 s) at start-up and after each threaded BLAS call
# before it sleeps; at 2^20 (well under 1 ms) an idle worker sleeps almost at
# once.  Chosen from 10 alternating runs of `cp1-suite --suite bms --m-list
# 64,128,256,512`, whose SVDs and matrix products make back-to-back threaded
# calls: median CPU 1.10 s at 28, 0.99 s at 24, 0.94 s at 20, 0.92 s at 16
# and 0.95 s at 12, whose wall time grew (0.66 s, against 0.59-0.62 s),
# since a sleeping worker is slower to wake (2 vCPU, numpy 2.4.6).  Only when
# a worker sleeps changes: the thread count and how OpenBLAS splits each call
# do not, so every report keeps its bytes.
BLAS_THREAD_TIMEOUT = "20"


# ---------------------------------------------------------------------------
# run configuration

# Every RunConfig field and its default.  This one table makes RunConfig's
# constructor, the coercion of flags and config-file keys (by the default's
# type) and the inputs.config echo of every report.
RUN_FIELDS = (
    ("command", ""),
    ("potential", "flat"),           # name or path to a potential JSON file
    ("alpha_path", ""),              # path to a bivector JSON file
    ("expr", "1"),
    ("f_expr", "(1 - zz) / (1+zz)"),
    ("g_expr", "(z + zbar) / (1+zz)"),
    ("f_poly", ""),                  # JSON for graph star factors
    ("g_poly", ""),
    ("order", 2),
    ("max_degree", 0),               # 0 = derived from order
    ("n", 1),
    ("family", "admissible"),        # graphs-enumerate: admissible | weighted
    ("wmax", 2),
    ("m", 8),
    ("m_list", (8, 16, 32, 64, 128)),
    ("at", "0"),
    ("suite", "bms"),                # cp1-suite: bms | berezin
    *QUADRATURE_FIELDS,
    # Set by no flag: read only by the inputs.config echo and the "seed" of
    # each report and weights row, until the echo shrinks (ROADMAP item 4a).
    ("method", "grid"),
    ("samples", 200_000),
    ("seed", 20260823),
    ("format", "json"),
    ("out", ""),
)
_DEFAULTS = dict(RUN_FIELDS)


class RunConfig(namedtuple("RunConfig", _DEFAULTS,
                           defaults=_DEFAULTS.values())):
    __slots__ = ()

    def validate(self):
        if self.command not in COMMAND_FIELDS:
            raise ValidationError(f"unknown command {self.command!r}")
        if self.format not in ("json", "csv"):
            raise ValidationError(f"unknown format {self.format!r}")
        if min(self.order, self.n, self.max_degree, self.wmax) < 0:
            raise ValidationError("order/n/max_degree/wmax must be >= 0")
        if self.order > MAX_ORDER:
            raise ValidationError(f"order {self.order} is above {MAX_ORDER}")
        if self.max_degree > MAX_DEGREE:
            raise ValidationError(
                f"max_degree {self.max_degree} is above {MAX_DEGREE}")
        for m in (self.m, *self.m_list):
            if not 1 <= m <= MAX_LEVEL:
                raise ValidationError(
                    f"level m = {m} is outside 1..{MAX_LEVEL}")
        if not self.m_list:
            raise ValidationError("m_list has no level")
        if len(set(self.m_list)) < len(self.m_list):
            raise ValidationError(f"m_list {list(self.m_list)} repeats a level")
        if self.suite not in ("bms", "berezin"):
            raise ValidationError(f"unknown suite {self.suite!r}")
        if self.family not in ("admissible", "weighted"):
            raise ValidationError(f"unknown family {self.family!r}")
        check_quadrature(self)


def load_config_file(path, fields):
    """Flat key=value sections; every key must be one of fields."""
    import configparser
    cp = configparser.ConfigParser()
    with open(path) as fh:
        try:
            cp.read_file(fh)
        except configparser.Error as exc:
            raise ValidationError(f"config file {path}: {exc}") from exc
    out = {}
    for section in cp.sections():
        for key, val in cp.items(section):
            if key not in fields:
                raise ValidationError(f"unknown config key {key!r} in "
                                      f"section [{section}]")
            out[key] = _coerce(key, val)
    return out


def _coerce(key, val):
    default = _DEFAULTS[key]
    if key == "m_list":
        return tuple(int(x) for x in val.replace(",", " ").split())
    if isinstance(default, int):
        return int(val)
    if isinstance(default, float):
        return float(val)
    return val


# ---------------------------------------------------------------------------
# pipelines

def run(cfg):
    """Validate cfg and build its report, the dict that emit serialises."""
    cfg.validate()
    cmd = cfg.command
    # out is an execution detail: reports must be byte-identical across
    # output destinations
    inputs = {"config": {k: (list(v) if isinstance(v, tuple) else v)
                         for k, v in cfg._asdict().items() if k != "out"}}
    if cmd in ("star-karabegov", "star-bt", "star-gammelgaard"):
        from .formal import star_table_to_json
        from .karabegov import load_potential
        if cmd == "star-gammelgaard":
            from .graphs import gammelgaard_star as build
        elif cmd == "star-bt":
            from .karabegov import bt_star_from as build
        else:
            from .karabegov import karabegov_star as build
        P = load_potential(cfg.potential, cfg.max_degree or 3 * cfg.order + 6)
        if P.D > MAX_DEGREE:
            raise ValidationError(f"potential max_degree {P.D} is above "
                                  f"{MAX_DEGREE}")
        if cfg.max_degree and cfg.max_degree != P.D:
            raise ValidationError(f"--max-degree {cfg.max_degree} differs "
                                  f"from the potential's max_degree {P.D}")
        if P.n > MAX_N:
            raise ResourceGuard(f"potential has n = {P.n} complex "
                                f"dimensions, above {MAX_N}")
        results = star_table_to_json(build(P, cfg.order))
    elif cmd == "star-kontsevich":
        from .graphs import (
            integration_config, kontsevich_star, load_bivector, load_poly,
            poly_json,
        )
        alpha = load_bivector(cfg.alpha_path)
        f = load_poly(cfg.f_poly, alpha.d)
        g = load_poly(cfg.g_poly, alpha.d)
        orders = kontsevich_star(alpha, f, g, cfg.order,
                                 integration_config(cfg))
        results = {"orders": [poly_json(p) for p in orders]}
    elif cmd == "graphs-enumerate":
        from .graphs import enumerate_ggraphs, enumerate_kgraphs
        gs = (enumerate_kgraphs(cfg.n) if cfg.family == "admissible"
              else enumerate_ggraphs(cfg.wmax))
        results = {"count": len(gs), "graphs": [g.to_json() for g in gs]}
    elif cmd == "weights":
        from .graphs import (
            enumerate_kgraphs, integration_config, kontsevich_weights,
        )
        gs = enumerate_kgraphs(cfg.n)
        ws = kontsevich_weights(gs, integration_config(cfg))
        results = {"weights": [
            {"graph": g.to_json(), "value": w.value,
             "error_estimate": w.error_estimate,
             "samples_or_cells": w.samples_or_cells, "seed": cfg.seed}
            for g, w in zip(gs, ws)]}
    elif cmd == "cp1-toeplitz":
        # plain Python floats, no numpy: the entries off the band are zero
        from .symbols import make_context, parse_observable, toeplitz_band
        ctx = make_context(cfg.m)
        entries = [(0.0, 0.0)] * (ctx.dim * ctx.dim)
        for idx, v in toeplitz_band(parse_observable(cfg.expr), ctx).items():
            entries[idx] = (v.real, v.imag)
        results = {"m": cfg.m, "entries": entries}
    else:  # cp1-berezin, cp1-suite
        from .cp1 import command_results
        results = command_results(cfg)
    return {"tool": "starq", "version": __version__, "command": cmd,
            "inputs": inputs, "seed": cfg.seed, "results": results}


# ---------------------------------------------------------------------------
# emission

def _series_csv(results):
    yield "series,m,value,fit_limit,fit_slope,fit_residual"
    for s in results["series"]:
        fit = s["fit"]
        for pt in s["points"]:
            yield (f"{s['name']},{pt['m']},{pt['value']!r},{fit['limit']!r},"
                   f"{fit['slope']!r},{fit['residual']!r}")


def _points_csv(results):
    yield "m,value"
    for pt in results["points"]:
        yield f"{pt['m']},{pt['value']!r}"


def _weights_csv(results):
    yield "graph,value,error_estimate,samples_or_cells,seed"
    for row in results["weights"]:
        gtxt = json.dumps(row["graph"], sort_keys=True,
                          separators=(",", ":")).replace('"', "'")
        yield (f"\"{gtxt}\",{row['value']!r},{row['error_estimate']!r},"
               f"{row['samples_or_cells']},{row['seed']}")


# The CSV lines of each command that has a CSV form.
_CSV_WRITERS = {"cp1-suite": _series_csv, "cp1-berezin": _points_csv,
                "weights": _weights_csv}


def emit(report, fmt):
    command = report["command"]
    try:
        # the report is a tree starq builds itself: no circular reference
        text = json.dumps(report, sort_keys=True, separators=(",", ":"),
                          allow_nan=False, check_circular=False)
    except ValueError as exc:
        raise NonFiniteResult(
            f"{command} computed a value that is not finite") from exc
    if fmt == "json":
        return (text + "\n").encode()
    if command not in _CSV_WRITERS:
        raise ValidationError(f"command {command!r} has no CSV form")
    return "".join(line + "\n" for line in
                   _CSV_WRITERS[command](report["results"])).encode()


# ---------------------------------------------------------------------------
# commands and arguments

# The RunConfig fields each command reads: its flags and config-file keys,
# besides --config and --out.  --format goes to the commands with a CSV form.
# An unread field keeps its default, which validate admits and the echo shows.
_EXACT = ("potential", "order", "max_degree")
_QUADRATURE = tuple(name for name, _ in QUADRATURE_FIELDS)
COMMAND_FIELDS = {cmd: fields + ("format",) * (cmd in _CSV_WRITERS)
                  for cmd, fields in (
    ("star-karabegov", _EXACT), ("star-bt", _EXACT),
    ("star-kontsevich", ("alpha_path", "f_poly", "g_poly", "order",
                         *_QUADRATURE)),
    ("star-gammelgaard", _EXACT),
    ("graphs-enumerate", ("n", "family", "wmax")),
    ("weights", ("n", *_QUADRATURE)), ("cp1-toeplitz", ("m", "expr")),
    ("cp1-berezin", ("expr", "at", "m_list")),
    ("cp1-suite", ("suite", "f_expr", "g_expr", "m_list")))}


def _flag(name):
    return "--" + name.replace("_", "-")


def _usage(command):
    if command not in COMMAND_FIELDS:
        return ("usage: starq COMMAND [--FLAG VALUE | --FLAG=VALUE ...]\n"
                "       starq COMMAND --help\n\ncommands: "
                + ", ".join(COMMAND_FIELDS) + "\n\n" + __doc__)
    flags = "".join(f" [{_flag(name)} {name.upper()}]"
                    for name in COMMAND_FIELDS[command] + ("out",))
    text = f"usage: starq {command} [--help] [--config FILE]{flags}\n"
    if "m_list" in COMMAND_FIELDS[command]:
        text += "\nM_LIST: comma-separated levels, e.g. 8,16,32\n"
    return text


def config_from_args(argv):
    """The command comes first, then only its own flags, --config and --out,
    each as `--name VALUE` or `--name=VALUE`; VALUE is the next token unless
    that begins with `--`, and a repeated flag keeps its last value.  A flag
    left out keeps its default, and none may be abbreviated (`--m` must not
    stand for `--m-list`).  -h or --help anywhere prints the usage and exits
    0; every other token raises ValidationError."""
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_usage(argv[0]))
        raise SystemExit(0)
    if not argv:
        raise ValidationError("no command given")
    command, *rest = argv
    if command not in COMMAND_FIELDS:
        raise ValidationError(f"unknown command {command!r}; the command "
                              f"comes first, one of {', '.join(COMMAND_FIELDS)}")
    fields = COMMAND_FIELDS[command] + ("out",)
    names = {_flag(name): name for name in fields + ("config",)}
    args = {}
    tokens = iter(rest)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in names:
            raise ValidationError(f"{command} takes no argument {token!r}")
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ValidationError(f"argument {flag} expects a value")
        args[names[flag]] = value
    config = args.pop("config", "")
    values = load_config_file(config, fields) if config else {}
    values |= {name: _coerce(name, raw) for name, raw in args.items()}
    return RunConfig(command=command, **values)


def main(argv=None):
    try:
        cfg = config_from_args(argv if argv is not None else sys.argv[1:])
        report = run(cfg)
        payload = emit(report, cfg.format)
        if cfg.out:
            out_dir = os.environ.get("OUTPUT_DIR", "")
            path = os.path.join(out_dir, cfg.out) if out_dir else cfg.out
            with open(path, "wb") as fh:
                fh.write(payload)
        else:
            # inside the try: a closed stdout exits 2 like any other OSError
            sys.stdout.buffer.write(payload)
            sys.stdout.buffer.flush()
    except (ValueError, OSError) as exc:
        _err(exc)
        return 2
    except ArithmeticError as exc:
        _err(exc)
        return 3
    return 0


def _err(exc):
    line = json.dumps({"error": type(exc).__name__, "message": str(exc)},
                      sort_keys=True)
    print(line, file=sys.stderr)


if __name__ == "__main__":
    # Set before anything imports numpy: OpenBLAS reads it once, when numpy
    # loads it.  A caller of main() in its own process keeps its environment.
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", BLAS_THREAD_TIMEOUT)
    code = main()
    # Exit without interpreter teardown: it does no work a run needs, and
    # after numpy it takes about 30 ms.
    # A stream whose write already failed is skipped: main has written its
    # error line.
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (OSError, ValueError):
            pass
    os._exit(code)
