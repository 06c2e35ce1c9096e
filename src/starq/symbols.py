"""Sphere observables, level-m contexts and the exact Toeplitz band.

An observable is a sum of terms coeff * z^a zbar^b (1+|z|^2)^{-c}, a + b <= 2c,
in the affine chart of the sphere.  Only ObservableFn.__call__, is_real and
sup_norm need numpy, and they import it when called, so cp1-toeplitz, which
reads the band and nothing else from here, never loads numpy; starq.cp1
builds every dense Toeplitz matrix from the same band.  sup_norm draws its
fixed sample of 4096 points with _uniform_draws, plain-Python PCG64 giving
the doubles of numpy's default_rng, so no command loads numpy.random for it.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import NonFiniteResult

TWO_PI = 2 * math.pi


class UnboundedSymbol(ValueError):
    """Symbol term violates the boundedness constraint a+b <= 2c."""


# ---------------------------------------------------------------------------
# observables

@dataclass(frozen=True)
class ObservableFn:
    """Sum of terms coeff * z^a zbar^b (1+|z|^2)^{-c}.

    The term form is closed under products, derivatives, and the Poisson
    bracket, and integrates exactly against the quantization measures.
    """
    terms: tuple = ()            # ((coeff complex, a, b, c), ...)

    def __post_init__(self):
        merged = {}
        for coeff, a, b, c in self.terms:
            if a + b > 2 * c:
                raise UnboundedSymbol(
                    f"term z^{a} zbar^{b} (1+zz)^{-c} is unbounded")
            key = (a, b, c)
            merged[key] = merged.get(key, 0) + complex(coeff)
        canon = tuple((v, *k) for k, v in sorted(merged.items()) if v != 0)
        object.__setattr__(self, "terms", canon)

    @staticmethod
    def constant(c):
        return ObservableFn(terms=((complex(c), 0, 0, 0),))

    def is_real(self):
        import numpy as np
        lookup = {(a, b, c): coeff for coeff, a, b, c in self.terms}
        for coeff, a, b, c in self.terms:
            if not np.isclose(lookup.get((b, a, c), 0), coeff.conjugate()):
                return False
        return True

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

    def conj(self):
        return ObservableFn(terms=tuple((coeff.conjugate(), b, a, c)
                                        for coeff, a, b, c in self.terms))

    def _diff_terms(self, kind):
        """Raw term list of d/dz (holo) or d/dzbar (anti); may be unbounded."""
        return _diff_raw(self.terms, kind)

    def __call__(self, z):
        import numpy as np
        t = (z * np.conjugate(z)).real
        s = 1.0 / (1.0 + t)
        out = 0.0 + 0.0j
        for coeff, a, b, c in self.terms:
            out = out + coeff * z ** a * np.conjugate(z) ** b * s ** c
        return out

    def sup_norm(self):
        """Supremum over a fixed sample of 4096 sphere points (exact for
        constants)."""
        if all(a == b == 0 for _, a, b, _ in self.terms):
            return max(abs(sum(co * 1.0 for co, _, _, _ in self.terms)), 0.0)
        import numpy as np
        cth, phi = map(np.array, _uniform_draws(
            7, ((-1.0, 1.0), (0.0, TWO_PI)), 4096))
        t = (1 - cth) / (1 + cth)
        z = np.sqrt(t) * np.exp(1j * phi)
        return float(np.max(np.abs(self(z))))


# ---------------------------------------------------------------------------
# numpy's default_rng in plain Python (SeedSequence, PCG64, uniform doubles)

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed):
    """SeedSequence(seed).generate_state(4, uint64) for 0 <= seed < 2**32,
    a seed of one 32-bit entropy word."""
    hash_const = 0x43b0d7e5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931e8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xca01f9dd * x - 0x4973f715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(word) for word in (seed, 0, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = 0x8b51f9dd
    words = []
    for k in range(8):
        value = pool[k % 4] ^ hash_const
        hash_const = hash_const * 0x58f38ded & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]


def _uniform_draws(seed, bounds, n):
    """For each (low, high) in bounds in turn, the n doubles that
    np.random.default_rng(seed).uniform(low, high, n) gives, bit for bit.

    PCG64 is seeded by pcg_setseq_128_srandom_r(w0:w1, w2:w3) from the
    SeedSequence words; each draw steps the 128-bit LCG state and takes the
    XSL-RR output x; the double is low + (high - low) * (x >> 11) 2^-53."""
    w0, w1, w2, w3 = _seed_state(seed)
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    state = (inc + (w0 << 64 | w1)) * _PCG_MULT + inc & _MASK128
    out = []
    for low, high in bounds:
        span = high - low
        draws = []
        for _ in range(n):
            state = state * _PCG_MULT + inc & _MASK128
            rot = state >> 122
            x = (state >> 64 ^ state) & _MASK64
            x = (x >> rot | x << (64 - rot)) & _MASK64
            draws.append(low + span * ((x >> 11) * (1.0 / 9007199254740992.0)))
        out.append(draws)
    return out


def _diff_raw(raw, kind):
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


def multiply_by_one_plus_t_sq(raw):
    """(1+|z|^2)^2 times a raw term list: c -> c - 2."""
    return [(coeff, a, b, c - 2) for coeff, a, b, c in raw]


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
    raw = _diff_raw(_diff_raw(f.terms, "holo"), "anti")
    return ObservableFn(terms=tuple(reduce_terms(multiply_by_one_plus_t_sq(raw))))


def poisson_bracket_fn(f, g):
    """{f, g} = i (1+t)^2 (f_zbar g_z - f_z g_zbar); raises UnboundedSymbol
    when the result leaves the symbol class."""
    fa, fh = f._diff_terms("anti"), f._diff_terms("holo")
    ga, gh = g._diff_terms("anti"), g._diff_terms("holo")
    raw = []
    for c1, a1, b1, k1 in fa:
        for c2, a2, b2, k2 in gh:
            raw.append((1j * c1 * c2, a1 + a2, b1 + b2, k1 + k2))
    for c1, a1, b1, k1 in fh:
        for c2, a2, b2, k2 in ga:
            raw.append((-1j * c1 * c2, a1 + a2, b1 + b2, k1 + k2))
    return ObservableFn(terms=tuple(reduce_terms(multiply_by_one_plus_t_sq(raw))))


def height_observable():
    """(1 - |z|^2)/(1 + |z|^2), the third sphere coordinate."""
    return ObservableFn(terms=((1.0, 0, 0, 1), (-1.0, 1, 1, 1)))


def coord_x_observable():
    """(z + zbar)/(1 + |z|^2), the first sphere coordinate."""
    return ObservableFn(terms=((1.0, 1, 0, 1), (1.0, 0, 1, 1)))


# ---------------------------------------------------------------------------
# context and the exact Toeplitz band

@dataclass(frozen=True)
class Cp1Context:
    m: int
    dim: int
    norms_over_2pi: tuple      # exact Fractions; norms[k] = 2 pi * this
    quad_nodes: int            # K: the quadrature readers use a K x K grid


def _factorials(n):
    """[0!, 1!, ..., n!]."""
    return list(itertools.accumulate(range(1, n + 1), operator.mul,
                                     initial=1))


def make_context(m, quad_nodes=None):
    """Exact data of level m; no quadrature grid is built here."""
    if m < 1:
        raise ValueError("level m must be >= 1")
    # k!(m-k)!/(m+1)! = 1/((m+1) binom(m, k)): numerator 1, no gcd to take
    fact = _factorials(m + 1)
    norms = tuple(Fraction(1, fact[m + 1] // (fact[k] * fact[m - k]))
                  for k in range(m + 1))
    return Cp1Context(m=m, dim=m + 1, norms_over_2pi=norms,
                      quad_nodes=quad_nodes or 2 * (m + 3))


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
