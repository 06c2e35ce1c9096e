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
m = 534 on.  bms_suite keeps at most three dense
matrices live per level: it overwrites T_g with T_g T_f in row blocks and
subtracts the bands of T_br and T_fg in place, without dense copies of
them.  operator_norm and the Berezin defect raise NonFiniteResult on inf or
NaN rather than pass it on.

command_results builds the results of the cp1-berezin and cp1-suite
commands from a run configuration, under one np.errstate; cp1-toeplitz reads
only starq.symbols and never loads this module or numpy.

Documented sign constants (pinned by the Tuynman and commutator decay tests):
  * Laplacian: Delta f = (1+|z|^2)^2 d^2 f / dz dzbar;
  * Poisson bracket: {f, g} = i (1+|z|^2)^2 (f_zbar g_z - f_z g_zbar);
  * Hamiltonian field at level m: X^z = i f_zbar (1+|z|^2)^2 / (2m),
    the unique scaling for which the quantization operator equals
    i T_{f - Delta f/(2m)} exactly.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

from . import Frozen, NonFiniteResult, ResourceGuard, ValidationError
from .symbols import (
    TWO_PI, ObservableFn, _diff_raw, laplacian_fn, make_context,
    parse_observable, poisson_bracket_fn, toeplitz_band,
)


class QuadratureTolerance(ArithmeticError):
    """Grid refinement changed the result by more than the tolerance."""


# ---------------------------------------------------------------------------
# quadrature grid

def _build_grid(K):
    """Gauss-Legendre in cos(theta) times uniform azimuth, K x K nodes:
    flattened chart points z and weights w summing to 2 pi (the volume)."""
    c, w_c = np.polynomial.legendre.leggauss(K)
    phi = TWO_PI * (np.arange(K) + 0.5) / K
    C, PHI = np.meshgrid(c, phi, indexing="ij")
    T = (1 - C) / (1 + C)
    Z = np.sqrt(T) * np.exp(1j * PHI)
    W = np.outer(w_c * 0.5, np.full(K, TWO_PI / K))
    return Z.ravel(), W.ravel()


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


def _grid_side(ctx):
    """Side K of the K x K quadrature grid of a level-m context."""
    return 2 * (ctx.m + 3)


def _coherent_grid(ctx):
    """Quadrature nodes z and weights w of the context's grid, the coherent
    vectors E (one column per node) and their squared norms u."""
    z, w = _build_grid(_grid_side(ctx))
    E = np.conjugate(_section_matrix(ctx, z))
    u = np.sum((E * np.conjugate(E)).real, axis=0)
    return z, w, E, u


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

def coherent_vector(z0, ctx, fiber_scale=1.0):
    """Reproducing vector at the chart point z0 for the unit-norm frame;
    rescaling the frame by c multiplies the vector by conj(c)^m."""
    S = _section_matrix(ctx, np.asarray([z0], dtype=complex))[:, 0]
    return np.conjugate(S) * (np.conjugate(fiber_scale) ** ctx.m)


def covariant_symbol(A, z0, ctx):
    e = coherent_vector(z0, ctx)
    denom = np.vdot(e, e).real
    return complex(np.vdot(e, A @ e) / denom)


def berezin_transform_num(f, z0, ctx):
    return covariant_symbol(toeplitz_matrix(f, ctx), z0, ctx)


def epsilon_function(z0, ctx):
    """Rawnsley density; equals (m+1)/(2 pi) everywhere on the sphere."""
    e = coherent_vector(z0, ctx)
    u = np.vdot(e, e).real
    # pointwise metric density of the coherent section at its own point
    S = _section_matrix(ctx, np.asarray([z0], dtype=complex))[:, 0]
    hval = abs(np.dot(e, S)) ** 2 / u
    return float(hval)


def integral_exact(f):
    """Exact rational evaluation of the volume integral of a symbol-class f
    (divided by nothing; total measure 2 pi)."""
    out = 0.0
    for coeff, a, b, c in f.terms:
        if a != b:
            continue
        out += coeff * TWO_PI * float(
            Fraction(math.factorial(a) * math.factorial(c - a),
                     math.factorial(c + 1)))
    return out


def trace_identity(f, ctx):
    lhs = complex(np.trace(toeplitz_matrix(f, ctx)))
    rhs = (ctx.dim / TWO_PI) * integral_exact(f)
    return lhs, rhs, abs(lhs - rhs)


def adjointness_check(A, f, ctx):
    """|Tr(A^dag T_f) - integral of conj(symbol(A)) f against the epsilon
    measure|, the symbol integral by quadrature."""
    lhs = complex(np.trace(A.conj().T @ toeplitz_matrix(f, ctx)))
    z, w, E, u = _coherent_grid(ctx)
    sigma = np.einsum("in,ij,jn->n", np.conjugate(E), A, E) / u
    fv = np.asarray(f(z), dtype=complex)
    eps = ctx.dim / TWO_PI
    rhs = np.sum(np.conjugate(sigma) * fv * eps * w)
    return abs(lhs - rhs)


def contravariant_reconstruct(f, ctx):
    """Norm defect of rebuilding T_f from coherent projectors weighted by f."""
    z, w, E, u = _coherent_grid(ctx)
    fv = np.asarray(f(z), dtype=complex)
    eps = ctx.dim / TWO_PI
    weights = fv * eps * w / u
    B = (E * weights) @ E.conj().T
    return operator_norm(B - toeplitz_matrix(f, ctx))


def twisted_product(f, g, z0, ctx):
    """Covariant symbol of T_f T_g at z0."""
    return covariant_symbol(toeplitz_matrix(f, ctx) @ toeplitz_matrix(g, ctx),
                            z0, ctx)


# ---------------------------------------------------------------------------
# geometric quantization

def geometric_quantization(f, ctx):
    """Matrix of compress(covariant derivative along the Hamiltonian field
    plus i f) in the orthonormal basis, by quadrature on the context's
    K x K grid; raises QuadratureTolerance when the K + 8 grid moves an
    entry by more than 1e-8."""
    m = ctx.m

    def assemble(grid_nodes):
        z, w = _build_grid(grid_nodes)
        t = (z * z.conjugate()).real
        s = 1.0 / (1.0 + t)
        S = _section_matrix(ctx, z)
        fzbar = ObservableFn(terms=_diff_raw(f.terms, "anti"))(z)
        Xz = 1j * fzbar / (s * s) / (2 * m)
        fv = np.asarray(f(z), dtype=complex)
        G = np.empty_like(S)
        for k in range(m + 1):
            lower = S[k - 1] * math.sqrt((m - k + 1) / k) if k else 0.0
            G[k] = Xz * (k * lower - m * np.conjugate(z) * s * S[k]) \
                + 1j * fv * S[k]
        return np.conjugate(S) @ (G * w).T

    K = _grid_side(ctx)
    Q1 = assemble(K)
    Q2 = assemble(K + 8)
    if np.max(np.abs(Q1 - Q2)) > 1e-8:
        raise QuadratureTolerance(
            "quantization entries changed by more than 1e-8 under refinement")
    return Q2


def tuynman_defect(f, ctx):
    """Norm of Q_f - i T_{f - Delta f/(2m)}; zero up to quadrature error."""
    Q = geometric_quantization(f, ctx)
    corrected = f + laplacian_fn(f).scale(-1.0 / (2 * ctx.m))
    return operator_norm(Q - 1j * toeplitz_matrix(corrected, ctx))


# ---------------------------------------------------------------------------
# asymptotic harness

class AsymSeries(Frozen):
    __slots__ = ("points",        # ((m, value), ...)
                 "fit")           # (limit, slope, residual)

    def __init__(self, points, fit):
        self._set(points=points, fit=fit)

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


def bms_suite(f, g, m_list):
    """Semiclassical defect series: norm lower bound, commutator vs bracket,
    and product vs pointwise product, each with a log-log fit."""
    br = poisson_bracket_fn(f, g)
    pa, pb, pc = [], [], []
    sup_f = f.sup_norm()
    for m in m_list:
        ctx = make_context(m)
        Tf = toeplitz_matrix(f, ctx)
        Tg = toeplitz_matrix(g, ctx)
        pa.append((m, sup_f - operator_norm(Tf)))
        # three matrices live; in place, operands in the order of
        # comm = m i (Tf Tg - Tg Tf) - T_br and P = Tf Tg - T_fg
        P = Tf @ Tg
        comm = _right_multiply(Tg, Tf)
        del Tf, Tg
        np.subtract(P, comm, out=comm)
        np.multiply(m * 1j, comm, out=comm)
        _subtract_band(comm, br, ctx)
        pb.append((m, operator_norm(comm)))
        del comm
        _subtract_band(P, f * g, ctx)
        pc.append((m, operator_norm(P)))
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


def surjectivity_rank(ctx):
    """Rank of the span of Toeplitz matrices of the (m+1)^2 basis symbols."""
    m = ctx.m
    if m > 8:
        raise ResourceGuard("surjectivity scan limited to m <= 8")
    rows = []
    for a in range(m + 1):
        for b in range(m + 1):
            f = ObservableFn(terms=((1.0, a, b, max(a, b)),))
            rows.append(toeplitz_matrix(f, ctx).ravel())
    return int(np.linalg.matrix_rank(np.array(rows), tol=1e-9))


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
