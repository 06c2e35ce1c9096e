"""Numerical Kontsevich weights: quadrature over configurations in H^n, n <= 2.

The angle form of an edge from a vertex at z to a point w is d phi(z, w),
phi(z, w) = Im[log(w - z) - log(w - zbar)].  A graph's weight integrates
the wedge of its edges' angle forms over the upper half-plane H^n, with the
points nearer than eta to an edge's target excised and a Richardson step
over eta, eta/2, eta/4.  The unit cube is mapped onto H^n by tangents.

Both grids are products of midpoint axes, so the chart works on the axes and
broadcasts.  Each process caches the 2D pair integral, two floats, and builds
the 4D grid's axes and per-axis chart weight factors for each graph; it keeps
no full 4D array.  Each integral is one pass over blocks (rows of the pair
grid, first-axis slices of the 4D grid).  On a block, _edge gives each edge's
gradient columns and squared distance; the distances fill the three excision
masks (_fill_masks) and the gradients the integrand, a graph's through a
reused Jacobian buffer whose determinants are scaled by the block's slice of
the chart weight.  The nested masks multiply the integrand in place, the
widest first, and each sum runs over the whole grid (_excised), in the order
of one full-grid pass.  Only starq.graphs imports this module, and only to
integrate a weight, so the exact commands never load numpy;
graphs.kontsevich_weights calls grid_weight one graph at a time, in its own
process or a forked child.
"""

import functools
import math

import numpy as np

from .graphs import L, R, IntegrationFailure, WeightResult

_GRID_NODES_4D = 24               # per axis, non-factorizable 4D integrals
_PAIR_ROWS = 16                   # rows per block of a 2D pair integral


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
# chart, edges and excision, shared by every integral

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


def _edge(i, t, pos):
    """The edge (i, t) at the points pos: its row of the Jacobian, as
    (column, values) pairs for its nonzero columns, and the squared
    distance from vertex i to the target t."""
    zx, zy = pos[i - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        if t in (L, R):
            w = 0.0 if t == L else 1.0
            dx, dy = _grad_phi_boundary(zx, zy, w)
            return ((2 * i - 2, dx), (2 * i - 1, dy)), (zx - w) ** 2 + zy ** 2
        wx, wy = pos[t - 1]
        dzx, dzy, dwx, dwy = _grad_phi_full(zx, zy, wx, wy)
        return (((2 * i - 2, dzx), (2 * i - 1, dzy),
                 (2 * t - 2, dwx), (2 * t - 1, dwy)),
                (zx - wx) ** 2 + (zy - wy) ** 2)


def _fill_masks(masks, dists, eta):
    """Set the masks, for e = eta, eta/2, eta/4, to the points whose
    squared distances dists to every edge's target exceed e^2."""
    for mask, e in zip(masks, (eta, eta / 2, eta / 4)):
        e2 = e ** 2
        np.greater(dists[0], e2, out=mask)
        for dist2 in dists[1:]:
            mask &= dist2 > e2


def _excised(J, masks, eta):
    """J * mask for each of the masks in reverse order, eta/4 first, each
    product written over J and returned before the next is taken.

    The masks are nested (eta within eta/2 within eta/4), and x * 1 * 0 is
    x * 0, the same signed zero, so each product equals J * mask alone bit
    for bit, with no full-size temporary.  Nested masks are equal when
    their counts are: if the eta mask keeps what the eta/4 mask keeps, the
    Richardson step would measure nothing, and this raises
    IntegrationFailure instead."""
    if np.count_nonzero(masks[0]) == np.count_nonzero(masks[-1]):
        raise IntegrationFailure(
            f"eta {eta!r} excises the same points as eta/4, so the "
            f"Richardson step in eta measures nothing")
    return (np.multiply(J, mask, out=J) for mask in reversed(masks))


# ---------------------------------------------------------------------------
# 2D pair integrals

@functools.cache
def _pair_integral_2d(M, eta):
    """int_H d phi(z,L) ^ d phi(z,R), with eta-excision and Richardson in
    eta: a vertex with no internal edge has the canonical targets (L, R).

    J and the masks are filled _PAIR_ROWS rows at a time, from the chart
    and both edges on the rows.  The distances are dropped once they fill
    the masks, and the gradients once they fill J, so no block's arrays
    meet the next block's; each sum runs over the whole M x M array."""
    s = (np.arange(M) + 0.5) / M
    J = np.empty((M, M))
    masks = [np.empty((M, M), dtype=bool) for _ in range(3)]
    for lo in range(0, M, _PAIR_ROWS):
        rows = slice(lo, lo + _PAIR_ROWS)
        pos, factors = _chart_factors([s[rows, None], s[None, :]])
        (((_, d1x), (_, d1y)), dist_l) = _edge(1, L, pos)
        (((_, d2x), (_, d2y)), dist_r) = _edge(1, R, pos)
        _fill_masks([mask[rows] for mask in masks], (dist_l, dist_r), eta)
        del dist_l, dist_r
        J[rows] = (d1x * d2y - d1y * d2x) * (math.prod(factors, start=1.0)
                                             / (M * M))
        del d1x, d1y, d2x, d2y
    return _richardson(
        [float(np.sum(v)) for v in _excised(J, masks, eta)][::-1])


# ---------------------------------------------------------------------------
# Jacobian determinants on the 4D grid

def _integrand(edges, pos, factors, eta):
    """det(Jacobian) times the chart weight, the product of factors, at
    every point of their broadcast shape, which pos broadcasts to, and the
    three excision masks there, filled one first-axis slice at a time.

    On each slice, _edge gives every edge's row of one reused (dim, dim,
    points) buffer and its distances for the masks.  np.linalg.det copies
    each matrix of the buffer's (points, dim, dim) view for LAPACK, so each
    determinant is the one a single call on the full stack gives.  Each
    slice is scaled by the product of the factors' slices, in order."""
    dim = len(edges)
    shape = np.broadcast_shapes(*(f.shape for f in factors))
    buf = np.zeros((dim, dim, math.prod(shape[1:])))
    rows = buf.reshape((dim, dim, 1) + shape[1:])
    stack = buf.transpose(2, 0, 1)
    det = np.empty(shape)
    masks = [np.empty(shape, dtype=bool) for _ in range(3)]

    def at(a, k):
        # slice k of a's first axis, or all of a if that axis is 1 long
        return a[k:k + 1] if len(a) > 1 else a

    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(shape[0]):
            block = tuple(tuple(at(a, k) for a in xy) for xy in pos)
            dists = []
            for r, (i, t) in enumerate(edges):
                columns, dist2 = _edge(i, t, block)
                for c, values in columns:
                    rows[r, c] = values
                dists.append(dist2)
            _fill_masks([mask[k:k + 1] for mask in masks], dists, eta)
            weight = math.prod((at(f, k) for f in factors), start=1.0)
            np.multiply(np.linalg.det(stack).reshape(rows.shape[2:]), weight,
                        out=det[k:k + 1])
    np.nan_to_num(det, copy=False, nan=0.0, posinf=0.0, neginf=0.0)
    return det, masks


def _grid_4d():
    """Midpoint grid of the unit 4-cube mapped onto H^2: per-axis points
    and per-axis weight factors."""
    M = _GRID_NODES_4D
    axis = (np.arange(M) + 0.5) / M
    return _chart_factors(
        [axis.reshape([M if d == k else 1 for d in range(4)])
         for k in range(4)])


def _norm(n):
    """Volume normalisation of an n-vertex weight."""
    return (2 * math.pi) ** (2 * n) * math.factorial(n)


# ---------------------------------------------------------------------------
# entry points (called by graphs.kontsevich_weights, with the canonical
# graph, so each vertex's edges come in the order L < R < 1 < 2 ...)

def grid_weight(G, cfg):
    M = cfg.grid_nodes
    if not G.has_internal_edge():
        # factorizes into the (L, R) pair integral of each vertex
        val, err = _pair_integral_2d(M, cfg.eta)
        if G.n == 1:
            return WeightResult(val / _norm(1), err / _norm(1) + 1e-12,
                                M ** 2)
        total = val * val
        err_rel = 2 * (err / max(abs(val), 1e-30))
        return WeightResult(total / _norm(2),
                            abs(total) * err_rel / _norm(2) + 1e-12,
                            2 * M ** 2)
    pos, factors = _grid_4d()
    integrand, masks = _integrand(G.edge_list(), pos, factors, cfg.eta)
    cells = _GRID_NODES_4D ** 4
    vals = [float(np.sum(a)) / cells
            for a in _excised(integrand, masks, cfg.eta)]
    r2, err = _richardson(vals[::-1])
    norm = _norm(G.n)
    return WeightResult(r2 / norm, err / norm + 1e-12, cells)

