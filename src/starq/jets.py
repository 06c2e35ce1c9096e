"""Exact truncated power series (jets) in n complex variables and conjugates.

Coefficients are complex rationals; no floats ever enter this module.
A jet of max_degree D stores Gaussian-integer numerators for the terms
(holo exponents, anti exponents) of total degree <= D over one shared
denominator.  Multiplication truncates above D.  Scalar, an exact complex
rational, is the coefficient type at the boundary: constructors,
`constant_term`, `terms` and JSON.  Every derivative is one `diff_multi`
pass, and `inverse` and `log` sum one series in r = a/a_0 - 1.
"""

import itertools
import math
from fractions import Fraction
from operator import add as _add, itemgetter, sub as _sub

from . import Frozen, ResourceGuard  # ResourceGuard is re-exported


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

    def conj(self):
        return Scalar(self.re, -self.im)

    def __repr__(self):
        return f"Scalar({self.re}, {self.im})"


def _as_scalar(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    raise TypeError(f"cannot coerce {type(x)!r} to Scalar")


ONE = Scalar(1)
I = Scalar(0, 1)


# ---------------------------------------------------------------------------
# multi-index helpers (plain tuples of non-negative ints)

def mi_zero(n):
    return (0,) * n


def mi_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mi_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def mi_le(a, b):
    return all(x <= y for x, y in zip(a, b))


def mi_deg(a):
    return sum(a)


def mi_binom(a, b):
    """Product of componentwise binomials C(a_i, b_i)."""
    out = 1
    for x, y in zip(a, b):
        out *= math.comb(x, y)
    return out


def mi_range(n, max_deg):
    """All multi-indices of length n with total degree <= max_deg, graded lex."""
    out = []
    for d in range(max_deg + 1):
        tier = []

        def rec_exact(prefix, remaining):
            if len(prefix) == n - 1:
                tier.append(tuple(prefix) + (remaining,))
                return
            for v in range(remaining + 1):
                rec_exact(prefix + [v], remaining - v)

        rec_exact([], d)
        out.extend(sorted(tier))
    return out


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


def _deg(key):
    return sum(key[0]) + sum(key[1])


def _add_keys(k1, k2):
    """Exponent key of the product of two monomials."""
    return tuple(map(_add, k1[0], k2[0])), tuple(map(_add, k1[1], k2[1]))


# unrolled for the common dimensions, where map() dominates a product
_KEY_ADDERS = {
    1: lambda k1, k2: ((k1[0][0] + k2[0][0],), (k1[1][0] + k2[1][0],)),
    2: lambda k1, k2: ((k1[0][0] + k2[0][0], k1[0][1] + k2[0][1]),
                       (k1[1][0] + k2[1][0], k1[1][1] + k2[1][1])),
    3: lambda k1, k2: ((k1[0][0] + k2[0][0], k1[0][1] + k2[0][1],
                        k1[0][2] + k2[0][2]),
                       (k1[1][0] + k2[1][0], k1[1][1] + k2[1][1],
                        k1[1][2] + k2[1][2])),
}

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

    A jet stores Gaussian-integer numerators `num` = {(holo, anti): (re, im)}
    over one positive denominator `den`, with no zero pair and no factor
    common to den and every numerator, so equal jets have equal fields.
    Every term has total degree <= max_degree.  `terms` presents the same
    coefficients as reduced Scalars.
    """

    __slots__ = ("n", "max_degree", "num", "den")

    def __init__(self, n, max_degree, terms=None):
        self.n = n
        self.max_degree = max_degree
        kept = []
        for key, coeff in (terms or {}).items():
            coeff = _as_scalar(coeff)
            if not coeff.is_zero() and _deg(key) <= max_degree:
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

    @staticmethod
    def monomial(holo, anti, n, max_degree, coeff=ONE):
        return Jet(n, max_degree, {(tuple(holo), tuple(anti)): _as_scalar(coeff)})

    # basics ---------------------------------------------------------------
    @property
    def terms(self):
        """{(holo, anti): Scalar} with reduced Fraction parts."""
        den = self.den
        return {k: Scalar(Fraction(re, den), Fraction(im, den))
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
        z = mi_zero(self.n)
        re, im = self.num.get((z, z), (0, 0))
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
        return sorted(((sum(k[0]) + sum(k[1]), k, re, im)
                       for k, (re, im) in self.num.items()), key=_first)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self.scale(other)
        self._check(other)
        n, D = self.n, self.max_degree
        if not self.num or not other.num:
            return _jet(n, D, {}, 1)
        add_keys = _KEY_ADDERS.get(n, _add_keys)
        right = other._graded()
        lowest = right[0][0]
        out = {}
        get = out.get
        for d1, k1, r1, i1 in self._graded():
            room = D - d1
            if lowest > room:
                break
            for d2, k2, r2, i2 in right:
                if d2 > room:
                    break
                key = add_keys(k1, k2)
                re = r1 * r2 - i1 * i2
                im = r1 * i2 + i1 * r2
                cur = get(key)
                if cur is not None:
                    re += cur[0]
                    im += cur[1]
                out[key] = (re, im)
        return _reduced(n, D, {k: v for k, v in out.items() if v[0] or v[1]},
                        self.den * other.den)

    __rmul__ = __mul__

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
        e, z = unit_mi(self.n, var), mi_zero(self.n)
        return self.diff_multi(e, z) if kind == "holo" else self.diff_multi(z, e)

    def diff_multi(self, holo, anti):
        """d^holo_z d^anti_zbar in one pass over the terms."""
        if not any(holo) and not any(anti):
            return self
        out = {}
        for (h, a), (re, im) in self.num.items():
            hd = tuple(map(_sub, h, holo))
            ad = tuple(map(_sub, a, anti))
            if min(hd) < 0 or min(ad) < 0:
                continue
            f = math.prod(map(math.perm, h, holo)) * math.prod(map(math.perm, a, anti))
            out[(hd, ad)] = (re * f, im * f)
        return _reduced(self.n, self.max_degree, out, self.den)

    def conj(self):
        return _jet(self.n, self.max_degree,
                    {(a, h): (re, -im) for (h, a), (re, im) in self.num.items()},
                    self.den)

    def _cut(self, degree, max_degree):
        return _reduced(self.n, max_degree,
                        {k: v for k, v in self.num.items() if _deg(k) <= degree},
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

class MetricJets(Frozen):
    """g: n x n tuple-of-tuples of Jet, g[i][j] = d2 Phi / dz_i dzbar_j;
    g_inv: its jet inverse matrix."""

    __slots__ = ("g", "g_inv")

    def __init__(self, g, g_inv):
        self._set(g=g, g_inv=g_inv)


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


def metric_from_potential(phi):
    """Hessian metric g_ij = d2 Phi / dz_i dzbar_j and its jet inverse
    g^{-1} = adj(g) / det g; raises DegenerateMetric when det g has no
    constant term."""
    n, D = phi.n, phi.max_degree
    g = hessian(phi)
    det = jet_det(g)
    if det.constant_term().is_zero():
        raise DegenerateMetric("degree-0 Hessian block is singular")
    inv_det = det.inverse()

    def cofactor(i, j):
        """(-1)^(i+j) times the minor of g without row i and column j."""
        if n == 1:
            return Jet.constant(1, n, D)
        minor = [row[:j] + row[j + 1:] for r, row in enumerate(g) if r != i]
        c = jet_det(minor)
        return -c if (i + j) % 2 else c

    g_inv = tuple(tuple(cofactor(j, i) * inv_det for j in range(n))
                  for i in range(n))
    return MetricJets(g=tuple(tuple(row) for row in g), g_inv=g_inv)


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
    terms = []
    for (h, a), (re, im) in sorted(jet.num.items()):
        terms.append({"dz": list(h), "dzbar": list(a),
                      "re": _frac_str(Fraction(re, jet.den)),
                      "im": _frac_str(Fraction(im, jet.den))})
    return {"n": jet.n, "max_degree": jet.max_degree, "terms": terms}


def _json_int(x, least, what):
    if type(x) is not int or x < least:
        raise ValueError(f"jet {what} must be an int >= {least}, got {x!r}")
    return x


def jet_from_json(obj):
    """Jet from jet_to_json's form; a ValueError names what is malformed."""
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
        terms[key] = Scalar(_frac_parse(t["re"]), _frac_parse(t["im"]))
    return Jet(n, D, terms)
