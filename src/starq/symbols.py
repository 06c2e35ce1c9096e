"""Sphere observables, their expression parser, level-m contexts and the
exact Toeplitz band.

An observable is a sum of terms coeff * z^a zbar^b (1+|z|^2)^{-c}, a + b <= 2c,
in the affine chart of the sphere.  parse_observable reads the --expr,
--f-expr and --g-expr texts of the sphere commands.  It bounds each
exponent, each power met while parsing and the total number of term
products of one parse, and raises a positioned ParseError past any bound.
It lives here, not in starq.cli, so the exact star-* commands, which take
no observable, never compile it.

Only ObservableFn.__call__ and sup_norm need numpy, and they import
it when called, so cp1-toeplitz, which reads the band and nothing else from
here, never loads numpy; starq.cp1 builds every dense Toeplitz matrix from
the same band.  sup_norm samples 4096 points for every observable, constants
included, with _uniform_draws: plain-Python PCG64 from numpy's state for
seed 7, giving Generator(PCG64(7))'s doubles, so no command loads
numpy.random.

Derivatives are unmerged term lists from _diff_raw; laplacian_fn and
poisson_bracket_fn share one tail that multiplies by (1+|z|^2)^2 and
reduces.  A context holds exact data only.
"""

import cmath
import itertools
import math
import operator
import re
from collections import namedtuple
from fractions import Fraction

from . import NonFiniteResult

TWO_PI = 2 * math.pi


class UnboundedSymbol(ValueError):
    """Symbol term violates the boundedness constraint a+b <= 2c."""


# ---------------------------------------------------------------------------
# observables

class ObservableFn(namedtuple("ObservableFn", "terms")):
    """Sum of terms coeff * z^a zbar^b (1+|z|^2)^{-c}.

    The term form is closed under products, derivatives, and the Poisson
    bracket, and integrates exactly against the quantization measures.
    terms is ((coeff complex, a, b, c), ...).
    """

    __slots__ = ()

    def __new__(cls, terms=()):
        merged = {}
        for coeff, a, b, c in terms:
            if a + b > 2 * c:
                raise UnboundedSymbol(
                    f"term z^{a} zbar^{b} (1+zz)^{-c} is unbounded")
            key = (a, b, c)
            merged[key] = merged.get(key, 0) + complex(coeff)
        return super().__new__(cls, tuple(
            (v, *k) for k, v in sorted(merged.items()) if v != 0))

    @staticmethod
    def constant(c):
        return ObservableFn(terms=((complex(c), 0, 0, 0),))

    def __add__(self, other):
        return ObservableFn(terms=self.terms + other.terms)

    def scale(self, c):
        return ObservableFn(terms=tuple((coeff * c, a, b, k)
                                        for coeff, a, b, k in self.terms))

    def __mul__(self, other):
        out = []
        for c1, a1, b1, k1 in self.terms:
            for c2, a2, b2, k2 in other.terms:
                out.append((c1 * c2, a1 + a2, b1 + b2, k1 + k2))
        return ObservableFn(terms=tuple(out))

    def __call__(self, z):
        import numpy as np
        t = (z * np.conjugate(z)).real
        s = 1.0 / (1.0 + t)
        out = 0.0 + 0.0j
        for coeff, a, b, c in self.terms:
            out = out + coeff * z ** a * np.conjugate(z) ** b * s ** c
        return out

    def sup_norm(self):
        """Supremum over a fixed sample of 4096 sphere points; a constant c
        gives abs(c) bit for bit."""
        import numpy as np
        cth, phi = map(np.array, _uniform_draws(
            ((-1.0, 1.0), (0.0, TWO_PI)), 4096))
        t = (1 - cth) / (1 + cth)
        z = np.sqrt(t) * np.exp(1j * phi)
        return float(np.max(np.abs(self(z))))


# ---------------------------------------------------------------------------
# observable expression parser

class ParseError(ValueError):
    """Observable expression rejected; carries the offending position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# Largest k in an observable's ^k, and largest power of z, zbar or (1+zz)
# that any value met while parsing may reach: ^k multiplies k times, and a
# division reads the binomials of (1+zz)^k back as floats.
MAX_EXPONENT = 64
MAX_POWER = 128
# Most term products, |u| * |v| summed over every product of one parse.  A
# cap on each product alone would not bound a chain of factors that each
# stay under it.  ((1+z+zbar+zz)^32)^2 takes about 1.2 M; the cap bounds a
# parse to about 2 s.
MAX_PRODUCTS = 1 << 22

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[0-9]+\.?[0-9]*(?:[eE][+-]?[0-9]+)?j?)|(?P<name>zbar|zz|z)"
    r"|(?P<op>[-+*/^()])|(?P<bad>\S))")


def _tokenize(text):
    # every non-space character begins a match, so none is skipped
    out = []
    for mt in _TOKEN_RE.finditer(text):
        kind = mt.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {mt.group(kind)!r}",
                             mt.start(kind))
        out.append((kind, mt.group(kind), mt.start(kind)))
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
        self.products = 0

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
                val = self.mul(val, self.factor(), pos)
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
                val = self.mul(val, self.factor(), pos)
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
                out = self.mul(out, base, epos)
            return out
        return base

    def mul(self, u, v, pos):
        """u * v, or ParseError at pos before a product with a power above
        MAX_POWER, or one that takes the parse past MAX_PRODUCTS term
        products, is formed."""
        _check_powers(u, v, pos)
        self.products += len(u) * len(v)
        if self.products > MAX_PRODUCTS:
            raise ParseError(f"expression needs more than {MAX_PRODUCTS} "
                             f"term products", pos)
        out = {}
        for (a1, b1, c1), x in u.items():
            for (a2, b2, c2), y in v.items():
                k = (a1 + a2, b1 + b2, c1 + c2)
                out[k] = out.get(k, 0) + x * y
        return out


def _add(u, v):
    out = dict(u)
    for k, c in v.items():
        out[k] = out.get(k, 0) + c
    return out


def _scale(u, s):
    return {k: c * s for k, c in u.items()}


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
    raw = _ExprParser(text).parse()
    # ObservableFn sorts, but would bound-check a zero term ("z - z")
    terms = tuple((co, a, b, c) for (a, b, c), co in raw.items() if co != 0)
    return ObservableFn(terms=terms)


# ---------------------------------------------------------------------------
# numpy's Generator(PCG64(7)) in plain Python (uniform doubles)

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# np.random.PCG64(7).state: SeedSequence(7)'s hash
_PCG_STATE = 208745520555909116978795849195383758904
_PCG_INC = 261136684632268670825940853076396136793


def _uniform_draws(bounds, n):
    """For each (low, high) in bounds in turn, the n doubles that
    np.random.Generator(np.random.PCG64(7)).uniform(low, high, n) gives,
    bit for bit: each draw steps the 128-bit LCG state, takes the XSL-RR
    output x and gives low + (high - low) * (x >> 11) 2^-53."""
    state = _PCG_STATE
    out = []
    for low, high in bounds:
        span = high - low
        draws = []
        for _ in range(n):
            state = state * _PCG_MULT + _PCG_INC & _MASK128
            rot = state >> 122
            x = (state >> 64 ^ state) & _MASK64
            x = (x >> rot | x << (64 - rot)) & _MASK64
            draws.append(low + span * ((x >> 11) * (1.0 / 9007199254740992.0)))
        out.append(draws)
    return out


def _diff_raw(raw, kind):
    """Unmerged term list of d/dz (holo) or d/dzbar (anti) of a term list."""
    out = []
    for coeff, a, b, c in raw:
        if kind == "holo":
            if a:
                out.append((coeff * a, a - 1, b, c))
            if c:
                out.append((-coeff * c, a, b + 1, c + 1))
        else:
            if b:
                out.append((coeff * b, a, b - 1, c))
            if c:
                out.append((-coeff * c, a + 1, b, c + 1))
    return out


def reduce_terms(raw):
    """Rewrite to min(a, b) = 0 via |z|^2 (1+|z|^2)^{-c} =
    (1+|z|^2)^{-(c-1)} - (1+|z|^2)^{-c}, exposing cancellations.

    An overflowed coefficient raises NonFiniteResult: inf - inf would leave
    a NaN where the terms cancel, which reads as an unbounded term."""
    merged = {}
    for coeff, a, b, c in raw:
        d = min(a, b)
        for i in range(d + 1):
            key = (a - d, b - d, c - i)
            val = coeff * ((-1) ** (d - i)) * math.comb(d, i)
            merged[key] = merged.get(key, 0) + val
    for (a, b, c), v in merged.items():
        if not cmath.isfinite(v):
            raise NonFiniteResult(
                f"coefficient of z^{a} zbar^{b} (1+zz)^{-c} overflowed")
    return [(v, *k) for k, v in sorted(merged.items()) if v != 0]


def laplacian_fn(f):
    """Delta f = (1+t)^2 f_{z zbar} within the symbol class."""
    return _times_one_plus_t_sq(_diff_raw(_diff_raw(f.terms, "holo"), "anti"))


def poisson_bracket_fn(f, g):
    """{f, g} = i (1+t)^2 (f_zbar g_z - f_z g_zbar); raises UnboundedSymbol
    when the result leaves the symbol class."""
    fa, fh = _diff_raw(f.terms, "anti"), _diff_raw(f.terms, "holo")
    ga, gh = _diff_raw(g.terms, "anti"), _diff_raw(g.terms, "holo")
    raw = []
    for c1, a1, b1, k1 in fa:
        for c2, a2, b2, k2 in gh:
            raw.append((1j * c1 * c2, a1 + a2, b1 + b2, k1 + k2))
    for c1, a1, b1, k1 in fh:
        for c2, a2, b2, k2 in ga:
            raw.append((-1j * c1 * c2, a1 + a2, b1 + b2, k1 + k2))
    return _times_one_plus_t_sq(raw)


def _times_one_plus_t_sq(raw):
    """The observable of (1+|z|^2)^2 times a raw term list, reduced."""
    return ObservableFn(terms=tuple(reduce_terms(
        [(coeff, a, b, c - 2) for coeff, a, b, c in raw])))


# ---------------------------------------------------------------------------
# context and the exact Toeplitz band

# Exact data of level m: dim = m + 1 and norms_over_2pi[k] = n_k / (2 pi) as
# exact Fractions.
Cp1Context = namedtuple("Cp1Context", "m dim norms_over_2pi")


def _factorials(n):
    """[0!, 1!, ..., n!]."""
    return list(itertools.accumulate(range(1, n + 1), operator.mul,
                                     initial=1))


def make_context(m):
    """Exact data of level m; no quadrature grid is built here."""
    if m < 1:
        raise ValueError("level m must be >= 1")
    # k!(m-k)!/(m+1)! = 1/((m+1) binom(m, k)): numerator 1, no gcd to take
    fact = _factorials(m + 1)
    norms = tuple(Fraction(1, fact[m + 1] // (fact[k] * fact[m - k]))
                  for k in range(m + 1))
    return Cp1Context(m=m, dim=m + 1, norms_over_2pi=norms)


def toeplitz_band(f, ctx):
    """Nonzero entries of T_f for a term-form f, {j * dim + k: complex}, each
    summed over f.terms in order from 0j, as a dense accumulator would."""
    m = ctx.m
    dim = ctx.dim
    c_max = max((c for _, _, _, c in f.terms), default=0)
    fact = _factorials(m + c_max + 1)
    norms = [float(x) for x in ctx.norms_over_2pi]
    band = {}
    for coeff, a, b, c in f.terms:
        for j in range(max(0, a - b), min(dim, dim + a - b)):
            k = j + b - a
            p = j + b
            # the Beta integral p!(m+c-p)!/(m+c+1)! rounds once (int / int
            # is correctly rounded); the norms n_j, n_k were rounded apiece
            integral = fact[p] * fact[m + c - p] / fact[m + c + 1]
            idx = j * dim + k
            band[idx] = band.get(idx, 0j) \
                + coeff * integral / math.sqrt(norms[j] * norms[k])
    return band
