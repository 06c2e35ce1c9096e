"""Exact truncated power series (jets) in n complex variables and conjugates.

Coefficients are complex rationals; no floats ever enter this module.
A jet of max_degree D stores Gaussian-integer numerators for the terms
of total degree <= D over one shared denominator, each term keyed by one
exponent tuple, holo exponents then anti exponents, so a product adds keys
and a derivative subtracts them.  Multiplication truncates above D.
Scalar, an exact complex rational, is the coefficient type at the
boundary: constructors, `constant_term`, `terms` and JSON.  Every
derivative is one `diff_multi` pass over one exponent tuple, and `inverse`
and `log` sum one series in r = a/a_0 - 1.  The operators of formal and
karabegov key their derivatives by the same tuples, and `mi_splits` is the
one Leibniz split they all use.  `metric_det` is the one check that a
Hessian metric is nondegenerate.
"""

import itertools
import math
from fractions import Fraction
from operator import add as _add, itemgetter, sub as _sub

from . import ResourceGuard  # re-exported


class ZeroConstantTerm(ArithmeticError):
    """Jet inversion requested for a jet with zero constant term."""


class DegenerateMetric(ArithmeticError):
    """Degree-0 Hessian block is singular."""


# ---------------------------------------------------------------------------
# scalars

class Scalar:
    """Complex number with exact rational real/imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    def __add__(self, other):
        other = _as_scalar(other)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-_as_scalar(other))

    def __mul__(self, other):
        other = _as_scalar(other)
        return Scalar(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_scalar(other)
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar((self.re * other.re + self.im * other.im) / den,
                      (self.im * other.re - self.re * other.im) / den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __repr__(self):
        return f"Scalar({self.re}, {self.im})"


def _as_scalar(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    raise TypeError(f"cannot coerce {type(x)!r} to Scalar")


ONE = Scalar(1)


# ---------------------------------------------------------------------------
# multi-index helpers (plain tuples of non-negative ints)

def mi_zero(n):
    return (0,) * n


def mi_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mi_splits(a):
    """(b, a - b, C(a, b)) for every multi-index b <= a, C(a, b) the product
    of componentwise binomials: the terms of the Leibniz rule
    d^a (u v) = sum_b C(a, b) d^b u d^(a-b) v."""
    for b in itertools.product(*(range(x + 1) for x in a)):
        yield b, tuple(map(_sub, a, b)), math.prod(map(math.comb, a, b))


def unit_mi(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


# ---------------------------------------------------------------------------
# jets

def _gaussian(c):
    """(re, im, den) with c = (re + i im) / den, den > 0, for an int,
    Fraction or Scalar c."""
    if isinstance(c, int):
        return c, 0, 1
    if isinstance(c, Fraction):
        return c.numerator, 0, c.denominator
    c = _as_scalar(c)
    qr, qi = c.re.denominator, c.im.denominator
    den = math.lcm(qr, qi)
    return c.re.numerator * (den // qr), c.im.numerator * (den // qi), den


_first = itemgetter(0)
_new = object.__new__


def _jet(n, D, num, den):
    """Jet from numerators already free of (0, 0) pairs and a common
    factor with den."""
    out = _new(Jet)
    out.n = n
    out.max_degree = D
    out.num = num
    out.den = den
    return out


def _reduced(n, D, num, den):
    """Jet from nonzero numerators over den > 0, with their common factor
    divided out."""
    if not num:
        return _jet(n, D, num, 1)
    g = den
    if g != 1:
        for re, im in num.values():
            g = math.gcd(g, re, im)
            if g == 1:
                break
        if g != 1:
            num = {k: (re // g, im // g) for k, (re, im) in num.items()}
            den //= g
    return _jet(n, D, num, den)


class Jet:
    """Truncated power series in (z_1..z_n, zbar_1..zbar_n).

    A jet stores Gaussian-integer numerators `num` = {holo + anti: (re, im)},
    keyed by one exponent tuple of length 2n, over one positive denominator
    `den`, with no zero pair and no factor common to den and every
    numerator, so equal jets have equal fields.  Every term has total
    degree <= max_degree.  The constructors, `terms` and JSON take and give
    (holo, anti) pairs; `terms` presents the coefficients as reduced
    Scalars.
    """

    __slots__ = ("n", "max_degree", "num", "den")

    def __init__(self, n, max_degree, terms=None):
        self.n = n
        self.max_degree = max_degree
        kept = []
        for (holo, anti), coeff in (terms or {}).items():
            coeff = _as_scalar(coeff)
            key = tuple(holo) + tuple(anti)
            if not coeff.is_zero() and sum(key) <= max_degree:
                kept.append((key, coeff.re, coeff.im))
        # the lcm of reduced denominators shares no factor with all of the
        # rescaled numerators, so the result is already reduced
        den = math.lcm(1, *(q for _, re, im in kept
                            for q in (re.denominator, im.denominator)))
        self.num = {key: (re.numerator * (den // re.denominator),
                          im.numerator * (den // im.denominator))
                    for key, re, im in kept}
        self.den = den

    # constructors ---------------------------------------------------------
    @staticmethod
    def zero(n, max_degree):
        return _jet(n, max_degree, {}, 1)

    @staticmethod
    def constant(c, n, max_degree):
        c = _as_scalar(c)
        return Jet(n, max_degree, {(mi_zero(n), mi_zero(n)): c})

    @staticmethod
    def variable(i, n, max_degree, kind="holo"):
        key = (unit_mi(n, i), mi_zero(n)) if kind == "holo" else (mi_zero(n), unit_mi(n, i))
        return Jet(n, max_degree, {key: ONE})

    # basics ---------------------------------------------------------------
    @property
    def terms(self):
        """{(holo, anti): Scalar} with reduced Fraction parts."""
        n, den = self.n, self.den
        return {(k[:n], k[n:]): Scalar(Fraction(re, den), Fraction(im, den))
                for k, (re, im) in self.num.items()}

    def _check(self, other):
        if self.n != other.n or self.max_degree != other.max_degree:
            raise ValueError("jet dimension/truncation mismatch")

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return (self.n == other.n and self.max_degree == other.max_degree
                and self.den == other.den and self.num == other.num)

    def is_zero(self):
        return not self.num

    def constant_term(self):
        re, im = self.num.get(mi_zero(2 * self.n), (0, 0))
        return Scalar(Fraction(re, self.den), Fraction(im, self.den))

    def __add__(self, other):
        self._check(other)
        return self._combine(other, 1)

    def __sub__(self, other):
        self._check(other)
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign * other over the lcm of the two denominators."""
        if not other.num:
            return self
        if not self.num:
            return other if sign == 1 else -other
        da, db = self.den, other.den
        den = da // math.gcd(da, db) * db
        fa, fb = den // da, sign * (den // db)
        if fa == 1:
            out = dict(self.num)
        else:
            out = {k: (re * fa, im * fa) for k, (re, im) in self.num.items()}
        for k, (re, im) in other.num.items():
            re *= fb
            im *= fb
            cur = out.get(k)
            if cur is None:
                out[k] = (re, im)
                continue
            re += cur[0]
            im += cur[1]
            if re or im:
                out[k] = (re, im)
            else:
                del out[k]
        return _reduced(self.n, self.max_degree, out, den)

    def __neg__(self):
        return _jet(self.n, self.max_degree,
                    {k: (-re, -im) for k, (re, im) in self.num.items()},
                    self.den)

    def _graded(self):
        """[(degree, key, re, im)] in increasing degree."""
        return sorted(((sum(k), k, re, im)
                       for k, (re, im) in self.num.items()), key=_first)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self.scale(other)
        return self.mul_to(other, self.max_degree)

    __rmul__ = __mul__

    def mul_to(self, other, degree):
        """self * other without forming any term above total degree
        min(degree, max_degree)."""
        self._check(other)
        n, D = self.n, self.max_degree
        top = min(degree, D)
        if not self.num or not other.num:
            return _jet(n, D, {}, 1)
        right = other._graded()
        lowest = right[0][0]
        out = {}
        get = out.get
        for d1, k1, r1, i1 in self._graded():
            room = top - d1
            if lowest > room:
                break
            for d2, k2, r2, i2 in right:
                if d2 > room:
                    break
                key = tuple(map(_add, k1, k2))
                re = r1 * r2 - i1 * i2
                im = r1 * i2 + i1 * r2
                cur = get(key)
                if cur is not None:
                    re += cur[0]
                    im += cur[1]
                out[key] = (re, im)
        return _reduced(n, D, {k: v for k, v in out.items() if v[0] or v[1]},
                        self.den * other.den)

    def scale(self, c):
        """c * self for an int, Fraction or Scalar c."""
        return self.mul_gaussian(*_gaussian(c))

    def mul_gaussian(self, re, im=0, den=1):
        """self * (re + i im) / den for ints re, im and den > 0."""
        if not (re or im) or not self.num:
            return _jet(self.n, self.max_degree, {}, 1)
        if im == 0:
            if re == den:
                return self
            num = {k: (a * re, b * re) for k, (a, b) in self.num.items()}
        else:
            num = {k: (a * re - b * im, a * im + b * re)
                   for k, (a, b) in self.num.items()}
        return _reduced(self.n, self.max_degree, num, self.den * den)

    def diff(self, var, kind="holo"):
        """d/dz_var (holo) or d/dzbar_var (anti), by diff_multi."""
        i = var if kind == "holo" else self.n + var
        return self.diff_multi(unit_mi(2 * self.n, i))

    def diff_multi(self, d):
        """d^holo_z d^anti_zbar for one exponent tuple d = holo + anti, in
        one pass over the terms."""
        if not any(d):
            return self
        out = {}
        for k, (re, im) in self.num.items():
            kd = tuple(map(_sub, k, d))
            if min(kd) < 0:
                continue
            f = math.prod(map(math.perm, k, d))
            out[kd] = (re * f, im * f)
        return _reduced(self.n, self.max_degree, out, self.den)

    def _cut(self, degree, max_degree):
        return _reduced(self.n, max_degree,
                        {k: v for k, v in self.num.items() if sum(k) <= degree},
                        self.den)

    def drop_above(self, degree):
        """Terms of total degree <= degree, at the same max_degree."""
        return self._cut(degree, self.max_degree)

    def truncate(self, new_degree):
        """Drop terms above new_degree and lower max_degree to it (never
        raise it)."""
        return self._cut(new_degree, min(self.max_degree, new_degree))

    def _unit_series(self, coeff):
        """(sum_k coeff(k) r^k over k = 1..D, a_0) for a unit a = a_0 (1 + r)
        with constant term a_0; r has positive valuation, so the series is
        finite in the truncated ring."""
        c0 = self.constant_term()
        if c0.is_zero():
            raise ZeroConstantTerm("jet has zero constant term")
        n, D = self.n, self.max_degree
        r = self.scale(ONE / c0) - Jet.constant(1, n, D)
        out = Jet.zero(n, D)
        power = Jet.constant(1, n, D)
        for k in range(1, D + 1):
            power = power * r
            if power.is_zero():
                break
            out = out + power.scale(coeff(k))
        return out, c0

    def inverse(self):
        """1/a = (1/a_0) sum_k (-r)^k."""
        series, c0 = self._unit_series(lambda k: (-1) ** k)
        return (series + Jet.constant(1, self.n, self.max_degree)).scale(ONE / c0)

    def log(self):
        """log(a / a_0) = sum_k (-1)^(k+1) r^k / k for a unit a.

        It is log a up to the constant log a_0, which is not rational in
        general."""
        return self._unit_series(lambda k: Fraction((-1) ** (k + 1), k))[0]

    def __repr__(self):
        if not self.num:
            return "Jet(0)"
        terms = self.terms
        bits = []
        for (h, a) in sorted(terms):
            c = terms[(h, a)]
            mon = []
            for i, e in enumerate(h):
                if e:
                    mon.append(f"z{i}^{e}" if e > 1 else f"z{i}")
            for i, e in enumerate(a):
                if e:
                    mon.append(f"zb{i}^{e}" if e > 1 else f"zb{i}")
            cs = f"({c.re}+{c.im}i)" if c.im else f"{c.re}"
            bits.append(cs + ("*" + "*".join(mon) if mon else ""))
        return "Jet(" + " + ".join(bits) + ")"


# ---------------------------------------------------------------------------
# metric data

def hessian(phi):
    """g_ij = d2 Phi / dz_i dzbar_j as an n x n list of jets."""
    return [[phi.diff(i, "holo").diff(j, "anti") for j in range(phi.n)]
            for i in range(phi.n)]


def jet_det(mat):
    """Determinant of an n x n matrix of jets by the Leibniz expansion
    sum_s sign(s) prod_i mat[i][s(i)] over the permutations s."""
    n = len(mat)
    out = Jet.zero(mat[0][0].n, mat[0][0].max_degree)
    for perm in itertools.permutations(range(n)):
        term = mat[0][perm[0]]
        for i in range(1, n):
            term = term * mat[i][perm[i]]
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        out = out - term if inversions % 2 else out + term
    return out


def metric_det(g):
    """det g of a Hessian metric g; raises DegenerateMetric when det g has
    no constant term, that is when g is singular at the origin."""
    det = jet_det(g)
    if det.constant_term().is_zero():
        raise DegenerateMetric("degree-0 Hessian block is singular")
    return det


def inverse_metric(phi):
    """metric_inverse of the Hessian metric g_ij = d2 Phi / dz_i dzbar_j."""
    g = hessian(phi)
    return metric_inverse(g, metric_det(g))


def metric_inverse(g, det):
    """g^{-1} = adj(g) / det g, an n x n tuple of tuples of jets."""
    n, inv_det = len(g), det.inverse()
    if n == 1:
        return ((inv_det,),)

    def cofactor(i, j):
        """(-1)^(i+j) times the minor of g without row i and column j."""
        minor = [row[:j] + row[j + 1:] for r, row in enumerate(g) if r != i]
        c = jet_det(minor)
        return -c if (i + j) % 2 else c

    return tuple(tuple(cofactor(j, i) * inv_det for j in range(n))
                 for i in range(n))


# ---------------------------------------------------------------------------
# serialization

def _frac_str(fr):
    return f"{fr.numerator}/{fr.denominator}"


def _frac_parse(s):
    if "/" in s:
        p, q = s.split("/")
        if int(q) == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return Fraction(int(p), int(q))
    return Fraction(int(s))


def jet_to_json(jet):
    n = jet.n
    terms = []
    for k, (re, im) in sorted(jet.num.items()):
        terms.append({"dz": list(k[:n]), "dzbar": list(k[n:]),
                      "re": _frac_str(Fraction(re, jet.den)),
                      "im": _frac_str(Fraction(im, jet.den))})
    return {"n": jet.n, "max_degree": jet.max_degree, "terms": terms}


def _json_int(x, least, what):
    if type(x) is not int or x < least:
        raise ValueError(f"jet {what} must be an int >= {least}, got {x!r}")
    return x


def jet_from_json(obj):
    """Jet from jet_to_json's form; a ValueError names what is malformed,
    a repeated monomial included."""
    n = _json_int(obj["n"], 1, "n")
    D = _json_int(obj["max_degree"], 0, "max_degree")

    def exponents(idx):
        if not isinstance(idx, list) or len(idx) != n:
            raise ValueError(f"jet exponents must be a list of {n} ints, "
                             f"got {idx!r}")
        return tuple(_json_int(e, 0, "exponent") for e in idx)

    terms = {}
    for t in obj["terms"]:
        key = (exponents(t["dz"]), exponents(t["dzbar"]))
        if key in terms:
            raise ValueError(f"jet repeats the monomial with exponents "
                             f"dz {list(key[0])}, dzbar {list(key[1])}")
        terms[key] = Scalar(_frac_parse(t["re"]), _frac_parse(t["im"]))
    return Jet(n, D, terms)
