"""Numerical Kontsevich weights: quadrature over configurations in H^n, n <= 2.

The angle form of an edge from a vertex at z to a point w is d phi(z, w),
phi(z, w) = Im[log(w - z) - log(w - zbar)].  A graph's weight integrates
the wedge of its edges' angle forms over the upper half-plane H^n, with the
points nearer than eta to an edge's target excised and a Richardson step
over eta, eta/2, eta/4.  The unit cube is mapped onto H^n by tangents.

Both grids are products of midpoint axes, so the chart works on the axes and
broadcasts.  What is built once per process and kept read-only: each 2D
pair integral, and the 4D grid's axes and per-axis chart weight factors.
No full 4D weight, squared distance or edge field is kept.  The working sets
stay bounded: the pair integral fills its integrand and masks in row
blocks, and a graph fills a reused Jacobian buffer block by block, each
block whole slices of the first axis, with each edge's gradient columns
taken on the block's slices of the axes.  It takes the determinants and
scales each block by its slice of the weight, formed from the factors in
the chart's order.  Its three excision masks are filled by the same blocks
from distances taken on the block.  The masks are nested, so the integrand
is multiplied by each in place, the widest first, and summed over the whole
grid after each product: every sum runs in the order of one full-grid pass
on the integrand times that mask alone.  The Monte Carlo path goes through
the same assembly code on fresh samples.
Only starq.graphs imports this module, and only when it integrates a
weight, so the exact commands never load numpy.  graphs.kontsevich_weights
calls grid_weight and mc_weight one graph at a time, in its own process or
in forked children: the caches here are filled before any fork, and each
process holds one graph's working set at a time.
"""

import functools
import math

import numpy as np

from .graphs import L, R, WeightResult

_GRID_NODES_4D = 24               # per axis, non-factorizable 4D integrals
_DET_BLOCK = 16384                # points per np.linalg.det call
_PAIR_ROWS = 16                   # rows per block of a 2D pair integral


def _frozen(a):
    """Mark a cached array read-only, so an in-place edit raises."""
    a.flags.writeable = False
    return a


# With A = w - z and B = w - zbar, the z-gradient is Im(-1/A + 1/B) and
# -Re(1/A + 1/B).  numpy's complex division (Smith's method) gives
# (-1)/A = -(1/A) and 1/conj(A) = conj(1/A) bit for bit, and B = conj(A)
# for boundary w, so one division per point gives the floats of the
# two-division formulas.

def _grad_phi_boundary(zx, zy, w):
    r = 1.0 / ((w - zx) - 1j * zy)
    return -2 * r.imag, -2 * r.real


def _grad_phi_full(zx, zy, wx, wy):
    """Gradient of phi(z, w) in (zx, zy, wx, wy) for interior w."""
    ra = 1.0 / ((wx - zx) + 1j * (wy - zy))
    rb = 1.0 / ((wx - zx) + 1j * (wy + zy))
    return (rb.imag - ra.imag, -(ra.real + rb.real),
            ra.imag - rb.imag, ra.real - rb.real)


def _richardson(vals):
    """Extrapolated value and error estimate from the eta, eta/2, eta/4
    integrals."""
    r1 = 2 * vals[1] - vals[0]
    r2 = 2 * vals[2] - vals[1]
    return r2, abs(r2 - r1)


# ---------------------------------------------------------------------------
# 2D pair integrals

@functools.cache
def _pair_integral_2d(p, q, M, eta):
    """int_H d phi(z,p) ^ d phi(z,q) with eta-excision and Richardson in eta.

    The integrand J and the three excision masks are filled _PAIR_ROWS rows
    at a time by _pair_rows, with the chart taken on each row block.  J is
    multiplied by the masks in place, and each sum still runs over the
    whole M x M array, so its pairwise order is that of one full-grid
    pass."""
    s = (np.arange(M) + 0.5) / M
    J = np.empty((M, M))
    eps2 = [e ** 2 for e in (eta, eta / 2, eta / 4)]
    masks = [np.empty((M, M), dtype=bool) for _ in eps2]
    for lo in range(0, M, _PAIR_ROWS):
        rows = slice(lo, lo + _PAIR_ROWS)
        _pair_rows(s[rows, None], s[None, :], p, q, eps2, J[rows],
                   [mask[rows] for mask in masks])
    return _richardson([float(np.sum(a)) for a in _excised(J, masks)][::-1])


def _pair_rows(u, v, p, q, eps2, J, masks):
    """One row block of the M x M pair integral, M = v.size: J and the
    masks at the chart of the unit-square rows u and columns v.  The
    block's temporaries end with the call, so none outlives its block."""
    M = v.size
    ((X, Y),), W = _chart([u, v])
    d1x, d1y = _grad_phi_boundary(X, Y, p)
    d2x, d2y = _grad_phi_boundary(X, Y, q)
    J[...] = (d1x * d2y - d1y * d2x) * (W / (M * M))
    dist_p = (X - p) ** 2 + Y ** 2
    dist_q = (X - q) ** 2 + Y ** 2
    for mask, e2 in zip(masks, eps2):
        np.logical_and(dist_p > e2, dist_q > e2, out=mask)


def _excised(J, masks):
    """J * mask for each of the masks in reverse order, eta/4 first, each
    product written over J and returned before the next is taken.

    The masks are nested (eta within eta/2 within eta/4), and x * 1 * 0 is
    x * 0, the same signed zero, so each product equals J * mask alone bit
    for bit, with no full-size temporary."""
    for mask in reversed(masks):
        yield np.multiply(J, mask, out=J)


def _vertex_boundary_points(G, i):
    pts = []
    for t in G.targets[i - 1]:
        if t == L:
            pts.append(0.0)
        elif t == R:
            pts.append(1.0)
        else:
            return None
    return pts


# ---------------------------------------------------------------------------
# Jacobian assembly, shared by the 4D grid and Monte Carlo

def _chart_factors(flat):
    """Points of H^n and the Jacobian of the unit-cube map, one factor per
    coordinate.

    flat holds the unit-cube coordinates (x_1, y_1, ..., x_n, y_n), arrays
    that broadcast together; the first item gives (x_i, y_i) of vertex i at
    index i - 1, the second the factor of each coordinate in flat's
    order."""
    coords, factors = [], []
    for k, u in enumerate(flat):
        if k % 2 == 0:
            x = np.tan(np.pi * (u - 0.5))
            factors.append(np.pi * (1 + x ** 2))
        else:
            x = np.tan(np.pi * u / 2)
            factors.append(np.pi / 2 * (1 + x ** 2))
        coords.append(x)
    return tuple(zip(coords[0::2], coords[1::2])), tuple(factors)


def _product(factors):
    """The chart weight: 1.0 times each factor in turn."""
    weight = 1.0
    for factor in factors:
        weight = weight * factor
    return weight


def _chart(flat):
    """Points of H^n and the Jacobian weight of the unit-cube map, which
    has the broadcast shape."""
    pos, factors = _chart_factors(flat)
    return pos, _product(factors)


def _edge_field(i, t, pos):
    """The edge (i, t)'s row of the Jacobian, as (column, values) pairs for
    its nonzero columns."""
    zx, zy = pos[i - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        if t in (L, R):
            dx, dy = _grad_phi_boundary(zx, zy, 0.0 if t == L else 1.0)
            return ((2 * i - 2, dx), (2 * i - 1, dy))
        wx, wy = pos[t - 1]
        dzx, dzy, dwx, dwy = _grad_phi_full(zx, zy, wx, wy)
        return ((2 * i - 2, dzx), (2 * i - 1, dzy),
                (2 * t - 2, dwx), (2 * t - 1, dwy))


def _edge_dist2(i, t, pos):
    """Squared distance from vertex i to the edge's target t."""
    zx, zy = pos[i - 1]
    if t in (L, R):
        w = 0.0 if t == L else 1.0
        return (zx - w) ** 2 + zy ** 2
    wx, wy = pos[t - 1]
    return (zx - wx) ** 2 + (zy - wy) ** 2


def _blocks(shape):
    """(lo, hi) ranges of shape's first axis holding about _DET_BLOCK
    points each, in whole slices."""
    inner = math.prod(shape[1:])
    step = min(shape[0], max(1, _DET_BLOCK // inner))
    return [(lo, min(lo + step, shape[0])) for lo in range(0, shape[0], step)]


def _block_pos(pos, shape, lo, hi):
    """The points pos with every array cut to the slices lo:hi of shape's
    first axis; an array of first axis 1 is broadcast along it first, and
    its other axes are left as they are."""
    return tuple(tuple(np.broadcast_to(a, shape[:1] + a.shape[1:])[lo:hi]
                       for a in xy) for xy in pos)


def _integrand(edges, pos, factors):
    """det(Jacobian) times the chart weight, the product of factors, at
    every point of their broadcast shape, which pos broadcasts to.

    The rows fill one reused (dim, dim, points) buffer, a block of whole
    first-axis slices at a time, each edge's row from _edge_field on the
    block's slices of pos; np.linalg.det reads the buffer through a
    (points, dim, dim) view and copies each matrix for LAPACK, so each
    determinant is the one a single call on the full stack gives.  Each
    block is scaled by its slice of the weight, the product of the
    factors' slices in the same order."""
    dim = len(edges)
    shape = np.broadcast_shapes(*(f.shape for f in factors))
    blocks = _blocks(shape)
    step = blocks[0][1]
    inner = math.prod(shape[1:])
    buf = np.zeros((dim, dim, step * inner))
    slices = buf.reshape((dim, dim, step) + shape[1:])
    det = np.empty(shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo, hi in blocks:
            n = hi - lo
            block = _block_pos(pos, shape, lo, hi)
            for r, (i, t) in enumerate(edges):
                for c, values in _edge_field(i, t, block):
                    slices[r, c, :n] = values
            stack = buf[:, :, :n * inner].transpose(2, 0, 1)
            weight = _product(np.broadcast_to(f, shape)[lo:hi]
                              for f in factors)
            np.multiply(np.linalg.det(stack).reshape(weight.shape), weight,
                        out=det[lo:hi])
    return np.nan_to_num(det, copy=False, nan=0.0, posinf=0.0, neginf=0.0)


def _masks(edges, pos, eta):
    """Points farther than e from every edge's target, e = eta, eta/2,
    eta/4, filled by the blocks of _integrand from distances taken on each
    block."""
    shape = np.broadcast_shapes(*(a.shape for xy in pos for a in xy))
    eps2 = [e ** 2 for e in (eta, eta / 2, eta / 4)]
    masks = [np.empty(shape, dtype=bool) for _ in eps2]
    for lo, hi in _blocks(shape):
        block = _block_pos(pos, shape, lo, hi)
        dists = [_edge_dist2(i, t, block) for i, t in edges]
        for mask, e2 in zip(masks, eps2):
            np.greater(dists[0], e2, out=mask[lo:hi])
            for dist2 in dists[1:]:
                mask[lo:hi] &= dist2 > e2
    return masks


@functools.cache
def _grid_4d():
    """Midpoint grid of the unit 4-cube mapped onto H^2: per-axis points
    and per-axis weight factors."""
    M = _GRID_NODES_4D
    axis = (np.arange(M) + 0.5) / M
    pos, factors = _chart_factors(
        [axis.reshape([M if d == k else 1 for d in range(4)])
         for k in range(4)])
    return (tuple((_frozen(x), _frozen(y)) for x, y in pos),
            tuple(_frozen(f) for f in factors))


def _norm(n):
    """Volume normalisation of an n-vertex weight."""
    return (2 * math.pi) ** (2 * n) * math.factorial(n)


# ---------------------------------------------------------------------------
# entry points (called by graphs.kontsevich_weights, with the canonical
# graph, so each vertex's edges come in the order L < R < 1 < 2 ...)

def grid_weight(G, cfg):
    n = G.n
    if n == 1:
        p, q = _vertex_boundary_points(G, 1)
        val, err = _pair_integral_2d(p, q, cfg.grid_nodes, cfg.eta)
        norm = _norm(1)
        return WeightResult(val / norm, err / norm + 1e-12,
                            cfg.grid_nodes ** 2, cfg.seed)
    if not G.has_internal_edge():
        # factorizes into independent per-vertex 2D integrals
        total = 1.0
        err_rel = 0.0
        for i in (1, 2):
            p, q = _vertex_boundary_points(G, i)
            val, err = _pair_integral_2d(p, q, cfg.grid_nodes, cfg.eta)
            err_rel += err / max(abs(val), 1e-30)
            total *= val
        norm = _norm(2)
        return WeightResult(total / norm, abs(total) * err_rel / norm + 1e-12,
                            2 * cfg.grid_nodes ** 2, cfg.seed)
    edges = G.edge_list()
    pos, factors = _grid_4d()
    integrand = _integrand(edges, pos, factors)
    cells = _GRID_NODES_4D ** 4
    vals = [float(np.sum(a)) / cells
            for a in _excised(integrand, _masks(edges, pos, cfg.eta))]
    r2, err = _richardson(vals[::-1])
    norm = _norm(n)
    return WeightResult(r2 / norm, err / norm + 1e-12, cells, cfg.seed)


def mc_weight(G, cfg):
    rng = np.random.default_rng(cfg.seed)
    count = cfg.samples
    pos, weight = _chart([rng.random(count) for _ in range(2 * G.n)])
    edges = G.edge_list()
    integrand = _integrand(edges, pos, (weight,))
    vals = []
    for a in _excised(integrand, _masks(edges, pos, cfg.eta)):
        if not vals:                # the eta/4 product
            sd = float(np.std(a)) / math.sqrt(count)
        vals.append(float(np.mean(a)))
    r2, err = _richardson(vals[::-1])
    norm = _norm(G.n)
    return WeightResult(r2 / norm, err / norm + sd / norm + 1e-12, count,
                        cfg.seed)
