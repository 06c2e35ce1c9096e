"""Numerical Berezin-Toeplitz quantization on the sphere.

Affine chart z, Kaehler form i dz^dzbar/(1+|z|^2)^2, volume 2 pi.  Holomorphic
sections of the m-th power of the quantizing bundle are polynomials of degree
at most m; the monomial z^k has exact squared norm 2 pi k!(m-k)!/(m+1)!.  The
observables, the level-m contexts and the exact Toeplitz band live in
starq.symbols, which needs no numpy; toeplitz_matrix writes that band into a
dense array of zeros, so every Toeplitz matrix comes from the band.  The
band takes each rational Beta integral to a float in one correctly rounded
division and divides it by sqrt(n_j n_k), formed from the float norms; that
product goes subnormal near m = 512 and to zero (a ZeroDivisionError) from
m = 534 on.  bms_suite keeps at most two dense matrices live per level,
LAPACK's copy for an SVD included: it takes the norm of T_f before building
T_g, overwrites T_f with P = T_f T_g in row blocks and keeps only P's
entries that are not +0.0, overwrites T_g with T_g T_f against a rebuilt
T_f, and scatters P back into zeros for each defect; the bands of T_br and
T_fg are subtracted in place, without dense copies of them.  operator_norm
and the Berezin defect raise NonFiniteResult on inf or NaN rather than pass
it on.

command_results builds the results of the cp1-berezin and cp1-suite
commands from a run configuration, under one np.errstate; cp1-toeplitz reads
only starq.symbols and never loads this module or numpy.

The paper's trace, adjointness, Rawnsley and geometric-quantization
checks, which no command runs, are in tests/paper_checks.py; this module
builds no quadrature grid on the sphere.

Documented sign constants (pinned by the Tuynman check in
tests/paper_checks.py and by the commutator decay tests):
  * Laplacian: Delta f = (1+|z|^2)^2 d^2 f / dz dzbar;
  * Poisson bracket: {f, g} = i (1+|z|^2)^2 (f_zbar g_z - f_z g_zbar).
"""

import cmath
import math
from collections import namedtuple

import numpy as np

from . import NonFiniteResult, ValidationError
from .symbols import (
    TWO_PI, laplacian_fn, make_context, parse_observable, poisson_bracket_fn,
    toeplitz_band,
)


# ---------------------------------------------------------------------------
# holomorphic sections

def _section_matrix(ctx, z):
    """S[l, node] = z^l (1+|z|^2)^{-m/2} / sqrt(norm_l), stable recurrence."""
    m = ctx.m
    z = np.asarray(z, dtype=complex)
    t = (z * z.conjugate()).real
    s = 1.0 / (1.0 + t)
    S = np.empty((m + 1,) + z.shape, dtype=complex)
    S[0] = math.sqrt((m + 1) / TWO_PI) * s ** (m / 2)
    for l in range(m):
        S[l + 1] = S[l] * z * math.sqrt((m - l) / (l + 1))
    return S


# ---------------------------------------------------------------------------
# Toeplitz matrices

def toeplitz_matrix(f, ctx):
    """Matrix of compress(f . ) in the orthonormal monomial basis: the exact
    band of f written into zeros."""
    band = toeplitz_band(f, ctx)
    A = np.zeros(ctx.dim * ctx.dim, dtype=complex)
    A[list(band)] = list(band.values())
    return A.reshape(ctx.dim, ctx.dim)


def operator_norm(A):
    """Largest singular value; an inf or NaN entry raises NonFiniteResult
    before the SVD, which would not converge on it."""
    if not np.isfinite(A).all():
        raise NonFiniteResult("operator norm of a matrix with inf or NaN "
                              "entries")
    return float(np.linalg.norm(A, 2))


# ---------------------------------------------------------------------------
# coherent states and symbols

def coherent_vector(z0, ctx):
    """Reproducing vector at the chart point z0 for the unit-norm frame;
    rescaling the frame by c would multiply it by conj(c)^m."""
    S = _section_matrix(ctx, np.asarray([z0], dtype=complex))[:, 0]
    return np.conjugate(S)


def covariant_symbol(A, z0, ctx):
    e = coherent_vector(z0, ctx)
    denom = np.vdot(e, e).real
    return complex(np.vdot(e, A @ e) / denom)


def berezin_transform_num(f, z0, ctx):
    return covariant_symbol(toeplitz_matrix(f, ctx), z0, ctx)


# ---------------------------------------------------------------------------
# asymptotic harness

class AsymSeries(namedtuple("AsymSeries", "points fit")):
    # points is ((m, value), ...) and fit is (limit, slope, residual)
    __slots__ = ()

    @staticmethod
    def from_points(points):
        """Power-law fit of a decaying defect series.

        limit: least-squares prefactor C of value ~ C m^slope;
        slope: asymptotic exponent, estimated from consecutive pairwise
        log-log slopes extrapolated linearly in 1/m (a C m^s (1 + O(1/m))
        series has pairwise slopes s + O(1/m), so the intercept recovers s);
        residual: rms of the plain log-log least-squares fit.
        """
        pts = tuple((int(m), float(v)) for m, v in points)
        usable = [(m, v) for m, v in pts if v > 0]
        if len(usable) < 2:
            return AsymSeries(points=pts, fit=(0.0, 0.0, 0.0))
        lm = np.log([m for m, _ in usable])
        lv = np.log([v for _, v in usable])
        ols_slope, intercept = np.polyfit(lm, lv, 1)
        resid = float(np.sqrt(np.mean((lv - (ols_slope * lm + intercept)) ** 2)))
        pair_slopes = (lv[1:] - lv[:-1]) / (lm[1:] - lm[:-1])
        inv_m = np.exp(-(lm[1:] + lm[:-1]) / 2)
        if len(pair_slopes) >= 2:
            _, slope = np.polyfit(inv_m, pair_slopes, 1)
        else:
            slope = pair_slopes[0]
        return AsymSeries(points=pts,
                          fit=(float(np.exp(intercept)), float(slope), resid))


_PRODUCT_ROWS = 64                # rows per block of an in-place product
_PRODUCT_MIN_ROWS = 16            # a shorter last block joins the one before


def _right_multiply(A, B):
    """A <- A @ B in place, _PRODUCT_ROWS rows of A at a time.

    A last block shorter than _PRODUCT_MIN_ROWS joins the block before it:
    numpy sends a one-row product through zgemv, which can flip signed
    zeros, while blocks of 16 rows or more give the bytes of one A @ B
    call."""
    n = A.shape[0]
    starts = list(range(0, n, _PRODUCT_ROWS))
    if len(starts) > 1 and n - starts[-1] < _PRODUCT_MIN_ROWS:
        starts.pop()
    for lo, hi in zip(starts, starts[1:] + [n]):
        A[lo:hi] = A[lo:hi] @ B
    return A


def _subtract_band(A, f, ctx):
    """A -= toeplitz_matrix(f, ctx) for a term-form f, in place and on the
    band alone: off it the dense subtraction is x - 0.0 = x, bit for bit."""
    band = toeplitz_band(f, ctx)
    rows, cols = np.unravel_index(np.array(list(band), dtype=np.intp),
                                  A.shape)
    A[rows, cols] -= np.array(list(band.values()), dtype=complex)


def _entries(A):
    """Flat indices and values of A's entries whose bits are not +0.0; a
    -0.0 is kept, so _scatter gives A back bit for bit."""
    flat = A.reshape(-1)
    bits = flat.view(np.uint64).reshape(flat.size, -1)
    idx = np.flatnonzero(bits.any(axis=1))
    return idx, flat[idx]


def _scatter(entries, shape):
    """The matrix of the given shape holding entries, zeros elsewhere."""
    idx, values = entries
    A = np.zeros(math.prod(shape), dtype=values.dtype)
    A[idx] = values
    return A.reshape(shape)


def bms_suite(f, g, m_list):
    """Semiclassical defect series: norm lower bound, commutator vs bracket,
    and product vs pointwise product, each with a log-log fit."""
    br = poisson_bracket_fn(f, g)
    pa, pb, pc = [], [], []
    sup_f = f.sup_norm()
    for m in m_list:
        ctx = make_context(m)
        # two matrices live, an SVD's copy included; operands in the order
        # of comm = m i (Tf Tg - Tg Tf) - T_br and P = Tf Tg - T_fg
        Tf = toeplitz_matrix(f, ctx)
        pa.append((m, sup_f - operator_norm(Tf)))
        Tg = toeplitz_matrix(g, ctx)
        P = _entries(_right_multiply(Tf, Tg))
        del Tf
        comm = _right_multiply(Tg, toeplitz_matrix(f, ctx))
        np.subtract(_scatter(P, (ctx.dim, ctx.dim)), comm, out=comm)
        np.multiply(m * 1j, comm, out=comm)
        _subtract_band(comm, br, ctx)
        pb.append((m, operator_norm(comm)))
        del comm, Tg
        prod = _scatter(P, (ctx.dim, ctx.dim))
        _subtract_band(prod, f * g, ctx)
        pc.append((m, operator_norm(prod)))
    return (AsymSeries.from_points(pa), AsymSeries.from_points(pb),
            AsymSeries.from_points(pc))


def berezin_defect_series(f, lap_f, sample_points, m_list):
    """Points (m, max_z |m (I_m f - f)(z) - Delta f(z)|) with a log-log fit;
    an inf or NaN defect, which max would drop, raises NonFiniteResult."""
    pts = []
    for m in m_list:
        ctx = make_context(m)
        Tf = toeplitz_matrix(f, ctx)
        worst = 0.0
        for z0 in sample_points:
            val = covariant_symbol(Tf, z0, ctx)
            defect = abs(m * (val - f(complex(z0))) - lap_f(complex(z0)))
            if not math.isfinite(defect):
                raise NonFiniteResult(
                    f"Berezin defect at m = {m}, z = {z0} is not finite")
            worst = max(worst, defect)
        pts.append((m, worst))
    return AsymSeries.from_points(pts)


# ---------------------------------------------------------------------------
# command results

def command_results(cfg):
    """Results of the cp1-berezin and cp1-suite commands for a run
    configuration.

    One errstate for the whole run: numpy's floating-point warnings would
    print ahead of the JSON error line, and a non-finite value is caught by
    the CLI's emission gate, which exits 3."""
    with np.errstate(all="ignore"):
        if cfg.command == "cp1-berezin":
            return _berezin_results(cfg)
        return _suite_results(cfg)


def _berezin_results(cfg):
    f = parse_observable(cfg.expr)
    z0 = complex(cfg.at.replace(" ", ""))
    if not cmath.isfinite(z0):
        raise ValidationError(f"--at {cfg.at!r} is not finite")
    points = []
    for m in cfg.m_list:
        val = berezin_transform_num(f, z0, make_context(m))
        points.append({"m": m, "value": val.real, "imag": val.imag})
    return {"series": "berezin", "at": cfg.at, "points": points}


def _suite_results(cfg):
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
