"""Command-line front end: config parsing, pipelines, JSON/CSV reports.

Exit codes follow the exception's base class: 0 success, 2 for a ValueError
or OSError (rejected input: every starq input error is a ValueError), 3 for
an ArithmeticError (every starq tolerance, cross-check and singularity error).
Errors, argument errors included, are emitted as one JSON line on stderr;
stdout (or --out) carries the primary artifact.  Reports are byte-identical
for identical configs and seeds.
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import io
import json
import math
import os
import re
import sys
from dataclasses import dataclass, fields

from . import NonFiniteResult, __version__

# Each command imports only the modules it uses, in the branch of run that
# handles it.  cp1 and the weight quadrature load numpy, which the exact
# star-* commands and cp1-toeplitz never need; the exact core (jets, formal,
# karabegov) loads only for the star-* commands.


class ParseError(ValueError):
    """Observable expression rejected; carries the offending position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class ValidationError(ValueError):
    pass


# Largest sphere level m that --m and --m-list accept: the Toeplitz matrix has
# (m+1)^2 entries, allocated before anything else can fail.
MAX_LEVEL = 2048

# Largest --order and explicit --max-degree of the exact pipelines; the
# derived default budget 3N + 6 stays within MAX_DEGREE for every order.
MAX_ORDER = 16
MAX_DEGREE = 64

# Largest k in an observable's ^k, and largest power of z, zbar or (1+zz)
# that any value met while parsing may reach: ^k multiplies k times, and a
# division reads the binomials of (1+zz)^k back as floats.
MAX_EXPONENT = 64
MAX_POWER = 128

COMMANDS = ("star-karabegov", "star-bt", "star-kontsevich",
            "star-gammelgaard", "graphs-enumerate", "weights",
            "cp1-toeplitz", "cp1-berezin", "cp1-suite")


# ---------------------------------------------------------------------------
# observable expression parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?j?)|(?P<name>zbar|zz|z)"
    r"|(?P<op>[-+*/^()]))")


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        mt = _TOKEN_RE.match(text, pos)
        if mt is None or mt.end() == pos:
            bad = pos
            while bad < len(text) and text[bad].isspace():
                bad += 1
            if bad == len(text):
                break
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        if mt.lastgroup is None:
            break
        kind = mt.lastgroup
        out.append((kind, mt.group(kind), mt.start(kind)))
        pos = mt.end()
    out.append(("end", "", len(text)))
    return out


class _ExprParser:
    """Recursive descent over sums of monomial terms in z, zbar, zz with
    division restricted to powers of (1+zz).

    Values are dicts (a, b, c) -> coeff for coeff z^a zbar^b (1+zz)^{-c}.
    """

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val!r}", pos)

    def parse(self):
        val = self.expr()
        kind, tok, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {tok!r}", pos)
        return val

    def expr(self):
        sign = 1.0
        kind, tok, _ = self.peek()
        if tok in ("+", "-"):
            self.next()
            sign = -1.0 if tok == "-" else 1.0
        val = _scale(self.term(), sign)
        while True:
            kind, tok, _ = self.peek()
            if tok not in ("+", "-"):
                return val
            self.next()
            rhs = self.term()
            val = _add(val, _scale(rhs, -1.0 if tok == "-" else 1.0))

    def term(self):
        val = self.factor()
        while True:
            kind, tok, pos = self.peek()
            if tok == "*":
                self.next()
                val = _mul(val, self.factor(), pos)
            elif tok == "/":
                self.next()
                denom = self.factor()
                k = _as_one_plus_zz_power(denom)
                if k is None:
                    raise ParseError(
                        "division is only defined by powers of (1+zz)", pos)
                _check_powers(val, {(0, 0, k): 1}, pos)
                val = {(a, b, c + k): co for (a, b, c), co in val.items()}
            elif kind in ("num", "name") or tok == "(":
                val = _mul(val, self.factor(), pos)
            else:
                return val

    def factor(self):
        kind, tok, pos = self.next()
        if kind == "num":
            coeff = complex(0, float(tok[:-1] or 1)) if tok.endswith("j") \
                else complex(float(tok))
            if not cmath.isfinite(coeff):
                raise ParseError(f"number {tok!r} is not finite", pos)
            base = {(0, 0, 0): coeff}
        elif kind == "name":
            base = {{"z": (1, 0, 0), "zbar": (0, 1, 0),
                     "zz": (1, 1, 0)}[tok]: 1.0 + 0j}
        elif tok == "(":
            base = self.expr()
            self.expect(")")
        else:
            raise ParseError(f"expected a number, variable, or '(', found "
                             f"{tok!r}", pos)
        kind, tok, _ = self.peek()
        if tok == "^":
            self.next()
            k2, etok, epos = self.next()
            if k2 != "num" or not etok.isdigit():
                raise ParseError("exponent must be a nonnegative integer",
                                 epos)
            if int(etok) > MAX_EXPONENT:
                raise ParseError(f"exponent {etok} is above {MAX_EXPONENT}",
                                 epos)
            out = {(0, 0, 0): 1.0 + 0j}
            for _ in range(int(etok)):
                out = _mul(out, base, epos)
            return out
        return base


def _add(u, v):
    out = dict(u)
    for k, c in v.items():
        out[k] = out.get(k, 0) + c
    return out


def _scale(u, s):
    return {k: c * s for k, c in u.items()}


def _mul(u, v, pos):
    """u * v, or ParseError at pos before a product with a power above
    MAX_POWER is formed."""
    _check_powers(u, v, pos)
    out = {}
    for (a1, b1, c1), x in u.items():
        for (a2, b2, c2), y in v.items():
            k = (a1 + a2, b1 + b2, c1 + c2)
            out[k] = out.get(k, 0) + x * y
    return out


def _check_powers(u, v, pos):
    """ParseError at pos if the product of u and v has a power of z, zbar or
    (1+zz) above MAX_POWER."""
    for i, name in enumerate(("z", "zbar", "(1+zz)")):
        if max(k[i] for k in u) + max(k[i] for k in v) > MAX_POWER:
            raise ParseError(f"power of {name} above {MAX_POWER}", pos)


def _as_one_plus_zz_power(val):
    """k when val is the expansion of (1+zz)^k with no denominators."""
    ks = [a for (a, b, c), co in val.items() if co != 0]
    if any(c != 0 or a != b for (a, b, c), co in val.items() if co != 0):
        return None
    k = max(ks, default=-1)
    if k < 0:
        return None
    for i in range(k + 1):
        want = float(math.comb(k, i))
        # np.isclose(got, want) with its default tolerances, want >= 1
        if not abs(val.get((i, i, 0), 0) - want) <= 1e-8 + 1e-5 * want:
            return None
    return k


def parse_observable(text):
    from .symbols import ObservableFn
    raw = _ExprParser(text).parse()
    terms = tuple((co, a, b, c) for (a, b, c), co in sorted(raw.items())
                  if co != 0)
    return ObservableFn(terms=terms)


# ---------------------------------------------------------------------------
# run configuration

@dataclass(frozen=True)
class RunConfig:
    command: str = ""
    potential: str = "flat"          # name or path to a potential JSON file
    alpha_path: str = ""             # path to a bivector JSON file
    expr: str = "1"
    f_expr: str = "(1 - zz) / (1+zz)"
    g_expr: str = "(z + zbar) / (1+zz)"
    f_poly: str = ""                 # JSON for graph star factors
    g_poly: str = ""
    order: int = 2
    max_degree: int = 0              # 0 = derived from order
    n: int = 1
    family: str = "admissible"       # graphs-enumerate: admissible | weighted
    wmax: int = 2
    m: int = 8
    m_list: tuple = (8, 16, 32, 64, 128)
    at: str = "0"
    suite: str = "bms"               # cp1-suite: bms | berezin
    method: str = "grid"
    grid_nodes: int = 800
    samples: int = 200_000
    eta: float = 0.1
    tol: float = 5e-3
    seed: int = 20260823
    format: str = "json"
    out: str = ""

    def validate(self):
        if self.command not in COMMANDS:
            raise ValidationError(f"unknown command {self.command!r}")
        if self.format not in ("json", "csv"):
            raise ValidationError(f"unknown format {self.format!r}")
        if self.method not in ("grid", "mc"):
            raise ValidationError(f"unknown method {self.method!r}")
        if self.order < 0 or self.n < 0:
            raise ValidationError("order/n must be >= 0")
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
        if self.samples < 1:
            raise ValidationError("samples must be >= 1")
        if self.grid_nodes < 2:
            raise ValidationError("grid_nodes must be >= 2")
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValidationError("eta must be finite and > 0")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValidationError("tol must be finite and > 0")


_CONFIG_TYPES = {f.name: f.type for f in fields(RunConfig)}


def load_config_file(path):
    """Flat key=value sections; every key must be a RunConfig field."""
    cp = configparser.ConfigParser()
    with open(path) as fh:
        try:
            cp.read_file(fh)
        except configparser.Error as exc:
            raise ValidationError(f"config file {path}: {exc}") from exc
    out = {}
    for section in cp.sections():
        for key, val in cp.items(section):
            if key not in _CONFIG_TYPES:
                raise ValidationError(f"unknown config key {key!r} in "
                                      f"section [{section}]")
            out[key] = _coerce(key, val)
    return out


def _coerce(key, val):
    default = RunConfig.__dataclass_fields__[key].default
    if key == "m_list":
        return tuple(int(x) for x in val.replace(",", " ").split())
    if isinstance(default, int):
        return int(val)
    if isinstance(default, float):
        return float(val)
    return val


# ---------------------------------------------------------------------------
# pipelines

@dataclass
class Report:
    command: str
    inputs: dict
    results: object
    seed: int
    version: str = __version__
    tool: str = "starq"

    def as_dict(self):
        return {"tool": self.tool, "version": self.version,
                "command": self.command, "inputs": self.inputs,
                "seed": self.seed, "results": self.results}


def _load_potential(cfg):
    from .jets import jet_from_json
    from .karabegov import FormalPotential, reference_potentials
    D = cfg.max_degree or (3 * cfg.order + 6)
    named = reference_potentials(D)
    if cfg.potential in named:
        return named[cfg.potential]
    with open(cfg.potential) as fh:
        obj = json.load(fh)
    try:
        phi_minus1 = jet_from_json(obj["phi_minus1"])
        phi = [jet_from_json(j) for j in obj.get("phi", [])]
        for jet in phi:
            if (jet.n, jet.max_degree) != (phi_minus1.n, phi_minus1.max_degree):
                raise ValueError("every 'phi' jet must match 'phi_minus1' in "
                                 "n and max_degree")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"potential file {cfg.potential} has no "
                              f"well-formed jets: {exc!r}") from exc
    return FormalPotential(phi_minus1=phi_minus1, phi=phi)


def _load_bivector(cfg):
    from .graphs import PoissonBivector
    if not cfg.alpha_path:
        return PoissonBivector.constant([[0.0, 1.0], [-1.0, 0.0]])
    with open(cfg.alpha_path) as fh:
        obj = json.load(fh)
    mat = obj.get("constant") if isinstance(obj, dict) else None
    if not (isinstance(mat, list) and mat and all(
            isinstance(row, list) and len(row) == len(mat)
            and all(type(x) in (int, float) for x in row) for row in mat)):
        raise ValidationError(f"bivector file {cfg.alpha_path} has no square "
                              f"numeric 'constant' matrix")
    return PoissonBivector.constant(mat)


def _load_poly(text, d):
    from .graphs import Poly
    if not text:
        return Poly.variable(0, d)
    coeffs = {}
    try:
        for coeff, exps in json.loads(text):
            if len(exps) != d or not all(type(e) is int and e >= 0
                                         for e in exps):
                raise ValidationError(f"exponent tuple {exps!r} is not {d} "
                                      f"nonnegative integers")
            if isinstance(coeff, bool) or isinstance(coeff, list) \
                    and any(isinstance(x, bool) for x in coeff):
                raise ValidationError(f"coefficient {coeff!r} is a boolean")
            c = complex(*coeff) if isinstance(coeff, list) \
                and len(coeff) == 2 else coeff
            # a TypeError for anything but a number or a [re, im] pair
            if not cmath.isfinite(c):
                raise ValidationError(f"coefficient {coeff!r} is not finite")
            coeffs[tuple(exps)] = coeffs.get(tuple(exps), 0) + c
    except TypeError as exc:
        raise ValidationError(f"polynomial {text!r} is not a list of "
                              f"[coeff, exponents] terms") from exc
    return Poly(d, coeffs)


def _poly_json(p):
    return [[[c.real, c.imag], list(k)]
            for k, c in sorted(p.coeffs.items())]


def _integration_config(cfg):
    from .graphs import IntegrationConfig
    return IntegrationConfig(method=cfg.method, grid_nodes=cfg.grid_nodes,
                             samples=cfg.samples, eta=cfg.eta, seed=cfg.seed,
                             tol=cfg.tol)


def run(cfg):
    cfg.validate()
    cmd = cfg.command
    # out is an execution detail: reports must be byte-identical across
    # output destinations
    inputs = {"config": {k: (list(v) if isinstance(v, tuple) else v)
                         for k, v in cfg.__dict__.items() if k != "out"}}
    if cmd in ("star-karabegov", "star-bt", "star-gammelgaard"):
        from .formal import star_table_to_json
        if cmd == "star-gammelgaard":
            from .graphs import gammelgaard_star as build
        elif cmd == "star-bt":
            from .karabegov import bt_star_from as build
        else:
            from .karabegov import karabegov_star as build
        results = star_table_to_json(build(_load_potential(cfg), cfg.order))
    elif cmd == "star-kontsevich":
        from .graphs import kontsevich_star
        alpha = _load_bivector(cfg)
        f = _load_poly(cfg.f_poly, alpha.d)
        g = _load_poly(cfg.g_poly, alpha.d)
        orders = kontsevich_star(alpha, f, g, cfg.order,
                                 _integration_config(cfg))
        results = {"orders": [_poly_json(p) for p in orders]}
    elif cmd == "graphs-enumerate":
        from .graphs import enumerate_ggraphs, enumerate_kgraphs
        if cfg.family == "admissible":
            gs = enumerate_kgraphs(cfg.n)
            results = {"count": len(gs), "graphs": [g.to_json() for g in gs]}
        else:
            gs = enumerate_ggraphs(cfg.wmax)
            results = {"count": len(gs), "graphs": [g.to_json() for g in gs]}
    elif cmd == "weights":
        from .graphs import enumerate_kgraphs, kontsevich_weight
        icfg = _integration_config(cfg)
        rows = []
        for g in enumerate_kgraphs(cfg.n):
            w = kontsevich_weight(g, icfg)
            rows.append({"graph": g.to_json(), "value": w.value,
                         "error_estimate": w.error_estimate,
                         "samples_or_cells": w.samples_or_cells,
                         "seed": w.seed})
        results = {"weights": rows}
    elif cmd == "cp1-toeplitz":
        # plain Python floats, no numpy: the entries off the band are zero
        from .symbols import make_context, toeplitz_band
        ctx = make_context(cfg.m)
        entries = [(0.0, 0.0)] * (ctx.dim * ctx.dim)
        for idx, v in toeplitz_band(parse_observable(cfg.expr), ctx).items():
            entries[idx] = (v.real, v.imag)
        results = {"m": cfg.m, "entries": entries}
    elif cmd.startswith("cp1-"):
        import numpy as np
        # One errstate for the whole run: numpy's floating-point warnings
        # would print ahead of the JSON error line, and a non-finite value
        # is caught by emit's gate, which exits 3.
        with np.errstate(all="ignore"):
            results = _run_cp1(cfg)
    else:  # pragma: no cover - guarded by validate()
        raise ValidationError(cmd)
    return Report(command=cmd, inputs=inputs, results=results, seed=cfg.seed)


def _run_cp1(cfg):
    """Results of the cp1-berezin and cp1-suite commands."""
    cmd = cfg.command
    if cmd == "cp1-berezin":
        from .cp1 import berezin_transform_num
        from .symbols import make_context
        f = parse_observable(cfg.expr)
        z0 = complex(cfg.at.replace(" ", ""))
        if not cmath.isfinite(z0):
            raise ValidationError(f"--at {cfg.at!r} is not finite")
        points = []
        for m in cfg.m_list:
            val = berezin_transform_num(f, z0, make_context(m))
            points.append({"m": m, "value": val.real, "imag": val.imag})
        return {"series": "berezin", "at": cfg.at, "points": points}
    from .cp1 import berezin_defect_series, bms_suite
    from .symbols import laplacian_fn
    f = parse_observable(cfg.f_expr)
    g = parse_observable(cfg.g_expr)
    if cfg.suite == "bms":
        names = ("norm_gap", "commutator_defect", "product_defect")
        series = bms_suite(f, g, cfg.m_list)
    else:
        pts = [0.0 + 0.0j, 0.3 + 0.1j, 0.8 - 0.5j, 1.6 + 0.9j]
        series = (berezin_defect_series(f, laplacian_fn(f), pts,
                                        cfg.m_list),)
        names = ("berezin_defect",)
    return {"series": [
        {"name": nm,
         "points": [{"m": m, "value": v} for m, v in s.points],
         "fit": {"limit": s.fit[0], "slope": s.fit[1],
                 "residual": s.fit[2]}}
        for nm, s in zip(names, series)]}


# ---------------------------------------------------------------------------
# emission

def emit(report, fmt):
    try:
        text = json.dumps(report.as_dict(), sort_keys=True,
                          separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise NonFiniteResult(
            f"{report.command} computed a value that is not finite") from exc
    if fmt == "json":
        return (text + "\n").encode()
    results = report.results
    buf = io.StringIO()
    if isinstance(results, dict) and "series" in results \
            and isinstance(results["series"], list):
        buf.write("series,m,value,fit_limit,fit_slope,fit_residual\n")
        for s in results["series"]:
            fit = s["fit"]
            for pt in s["points"]:
                buf.write(f"{s['name']},{pt['m']},{pt['value']!r},"
                          f"{fit['limit']!r},{fit['slope']!r},"
                          f"{fit['residual']!r}\n")
    elif isinstance(results, dict) and "points" in results:
        buf.write("m,value\n")
        for pt in results["points"]:
            buf.write(f"{pt['m']},{pt['value']!r}\n")
    elif isinstance(results, dict) and "weights" in results:
        buf.write("graph,value,error_estimate,samples_or_cells,seed\n")
        for row in results["weights"]:
            gtxt = json.dumps(row["graph"], sort_keys=True,
                              separators=(",", ":")).replace('"', "'")
            buf.write(f"\"{gtxt}\",{row['value']!r},"
                      f"{row['error_estimate']!r},"
                      f"{row['samples_or_cells']},{row['seed']}\n")
    else:
        raise ValidationError(
            f"command {report.command!r} has no CSV representation")
    return buf.getvalue().encode()


# ---------------------------------------------------------------------------
# entry point

class _ArgumentParser(argparse.ArgumentParser):
    """Argument errors raise ValidationError, so they end like every other
    rejected input: exit 2 and one JSON line, not argparse's usage text."""

    def error(self, message):
        raise ValidationError(message)


def build_parser():
    p = _ArgumentParser(prog="starq", description=__doc__)
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", default="", help="key=value config file")
    for fld in fields(RunConfig):
        if fld.name == "command":
            continue
        flag = "--" + fld.name.replace("_", "-")
        if fld.name == "m_list":
            p.add_argument(flag, default=None,
                           help="comma-separated levels, e.g. 8,16,32")
        else:
            p.add_argument(flag, default=None, type=str)
    return p


def config_from_args(argv):
    args = build_parser().parse_args(argv)
    values = {}
    if args.config:
        values.update(load_config_file(args.config))
    for fld in fields(RunConfig):
        if fld.name == "command":
            continue
        raw = getattr(args, fld.name)
        if raw is not None:
            values[fld.name] = _coerce(fld.name, raw)
    values["command"] = args.command
    return RunConfig(**values)


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
    except (ValueError, OSError) as exc:
        _err(exc)
        return 2
    except ArithmeticError as exc:
        _err(exc)
        return 3
    if not cfg.out:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    return 0


def _err(exc):
    line = json.dumps({"error": type(exc).__name__, "message": str(exc)},
                      sort_keys=True)
    print(line, file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
