"""Numerical Kontsevich weights: quadrature over configurations in H^n, n <= 2.

The angle form of an edge from a vertex at z to a point w is d phi(z, w),
phi(z, w) = Im[log(w - z) - log(w - zbar)].  A graph's weight integrates
the wedge of its edges' angle forms over the upper half-plane H^n, with the
points nearer than eta to an edge's target excised and a Richardson step
over eta, eta/2, eta/4.  The unit cube is mapped onto H^n by tangents.

Everything that depends on the grid alone is built once per process and
kept read-only: each 2D pair integral, the 4D coordinates with their
Jacobian weight, and each edge's gradient columns and squared distance.
The 2D half-plane grid is read only by the memoised pair integral, so it
is not kept.  A graph then only fills its Jacobian buffer from these
fields, takes the determinant and sums three masks.  The Monte Carlo path
goes through the same field and assembly code on fresh samples, uncached.
Only starq.graphs imports this module, and only when it integrates a
weight, so the exact commands never load numpy.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .graphs import L, R, WeightResult, _target_key

_GRID_NODES_4D = 24               # per axis, non-factorizable 4D integrals


def _frozen(a):
    """Mark a cached array read-only, so an in-place edit raises."""
    a.flags.writeable = False
    return a


def _grad_phi_boundary(zx, zy, w):
    A = (w - zx) - 1j * zy
    B = (w - zx) + 1j * zy
    dx = np.imag(-1.0 / A + 1.0 / B)
    dy = -np.real(1.0 / A + 1.0 / B)
    return dx, dy


def _grad_phi_full(zx, zy, wx, wy):
    """Gradient of phi(z, w) in (zx, zy, wx, wy) for interior w."""
    A = (wx - zx) + 1j * (wy - zy)
    B = (wx - zx) + 1j * (wy + zy)
    dzx = np.imag(-1.0 / A + 1.0 / B)
    dzy = -np.real(1.0 / A + 1.0 / B)
    dwx = np.imag(1.0 / A - 1.0 / B)
    dwy = np.real(1.0 / A - 1.0 / B)
    return dzx, dzy, dwx, dwy


def _richardson(vals):
    """Extrapolated value and error estimate from the eta, eta/2, eta/4
    integrals."""
    r1 = 2 * vals[1] - vals[0]
    r2 = 2 * vals[2] - vals[1]
    return r2, abs(r2 - r1)


# ---------------------------------------------------------------------------
# 2D pair integrals

def _halfplane_grid(M):
    s = (np.arange(M) + 0.5) / M
    u = (np.arange(M) + 0.5) / M
    S, U = np.meshgrid(s, u, indexing="ij")
    X = np.tan(np.pi * (S - 0.5))
    Y = np.tan(np.pi * U / 2)
    W = (np.pi * (1 + X ** 2)) * (np.pi / 2 * (1 + Y ** 2)) / (M * M)
    return X.ravel(), Y.ravel(), W.ravel()


@functools.cache
def _pair_integral_2d(p, q, M, eta):
    """int_H d phi(z,p) ^ d phi(z,q) with eta-excision and Richardson in eta."""
    X, Y, W = _halfplane_grid(M)
    d1x, d1y = _grad_phi_boundary(X, Y, p)
    d2x, d2y = _grad_phi_boundary(X, Y, q)
    J = (d1x * d2y - d1y * d2x) * W
    vals = []
    for e in (eta, eta / 2, eta / 4):
        mask = ((X - p) ** 2 + Y ** 2 > e ** 2) & ((X - q) ** 2 + Y ** 2 > e ** 2)
        vals.append(float(np.sum(J * mask)))
    return _richardson(vals)


def _vertex_boundary_points(G, i):
    pts = []
    for t in sorted(G.targets[i - 1], key=_target_key):
        if t == L:
            pts.append(0.0)
        elif t == R:
            pts.append(1.0)
        else:
            return None
    return pts


# ---------------------------------------------------------------------------
# Jacobian assembly, shared by the 4D grid and Monte Carlo

def _chart(flat):
    """Points of H^n and the Jacobian weight of the unit-cube map.

    flat holds the unit-cube coordinates (x_1, y_1, ..., x_n, y_n); the
    result's first item gives (x_i, y_i) of vertex i at index i - 1."""
    weight = np.ones(flat[0].shape[0])
    coords = []
    for k, u in enumerate(flat):
        if k % 2 == 0:
            x = np.tan(np.pi * (u - 0.5))
            weight = weight * (np.pi * (1 + x ** 2))
        else:
            x = np.tan(np.pi * u / 2)
            weight = weight * (np.pi / 2 * (1 + x ** 2))
        coords.append(x)
    return tuple(zip(coords[0::2], coords[1::2])), weight


def _edges(G):
    """(vertex, target) per edge, in the canonical per-vertex order."""
    return [(i, t) for i in range(1, G.n + 1)
            for t in sorted(G.targets[i - 1], key=_target_key)]


def _edge_field(i, t, pos):
    """The edge (i, t)'s row of the Jacobian, as (column, values) pairs for
    its nonzero columns, and the squared distance from vertex i to t."""
    zx, zy = pos[i - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        if t in (L, R):
            w = 0.0 if t == L else 1.0
            dx, dy = _grad_phi_boundary(zx, zy, w)
            return ((2 * i - 2, dx), (2 * i - 1, dy)), (zx - w) ** 2 + zy ** 2
        wx, wy = pos[t - 1]
        dzx, dzy, dwx, dwy = _grad_phi_full(zx, zy, wx, wy)
        cols = ((2 * i - 2, dzx), (2 * i - 1, dzy),
                (2 * t - 2, dwx), (2 * t - 1, dwy))
        return cols, (zx - wx) ** 2 + (zy - wy) ** 2


def _integrand(fields, weight):
    """det(Jacobian) times the chart weight, at every point.

    The rows fill a (dim, dim, points) buffer in place; np.linalg.det reads
    it through a (points, dim, dim) view and copies each matrix for LAPACK,
    so it sees the same matrices as from a contiguous stack."""
    dim = len(fields)
    buf = np.zeros((dim, dim, weight.shape[0]))
    for r, (cols, _) in enumerate(fields):
        for c, values in cols:
            buf[r, c] = values
    with np.errstate(divide="ignore", invalid="ignore"):
        det = np.linalg.det(buf.transpose(2, 0, 1))
        return np.nan_to_num(det * weight, nan=0.0, posinf=0.0, neginf=0.0)


def _masks(fields, eta):
    """Points farther than e from every edge's target, e = eta, eta/2,
    eta/4."""
    out = []
    for e in (eta, eta / 2, eta / 4):
        mask = fields[0][1] > e ** 2
        for _, dist2 in fields[1:]:
            mask &= dist2 > e ** 2
        out.append(mask)
    return out


@functools.cache
def _grid_4d():
    """Midpoint grid of the unit 4-cube mapped onto H^2: points, weight."""
    M = _GRID_NODES_4D
    axes = [(np.arange(M) + 0.5) / M for _ in range(4)]
    pos, weight = _chart([m.ravel()
                          for m in np.meshgrid(*axes, indexing="ij")])
    return (tuple((_frozen(x), _frozen(y)) for x, y in pos),
            _frozen(weight))


@functools.cache
def _grid_edge_field(i, t):
    """_edge_field on the 4D grid, built once per edge.

    A gradient column may be the real or imaginary view of a complex
    temporary; the copy keeps only its values, half the memory."""
    cols, dist2 = _edge_field(i, t, _grid_4d()[0])
    return (tuple((c, _frozen(np.ascontiguousarray(v))) for c, v in cols),
            _frozen(dist2))


def _norm(n):
    """Volume normalisation of an n-vertex weight."""
    return (2 * math.pi) ** (2 * n) * math.factorial(n)


# ---------------------------------------------------------------------------
# entry points (called by graphs.kontsevich_weight)

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
    fields = [_grid_edge_field(i, t) for i, t in _edges(G)]
    integrand = _integrand(fields, _grid_4d()[1])
    cells = _GRID_NODES_4D ** 4
    vals = [float(np.sum(integrand * mask)) / cells
            for mask in _masks(fields, cfg.eta)]
    r2, err = _richardson(vals)
    norm = _norm(n)
    return WeightResult(r2 / norm, err / norm + 1e-12, cells, cfg.seed)


def mc_weight(G, cfg):
    rng = np.random.default_rng(cfg.seed)
    count = cfg.samples
    pos, weight = _chart([rng.random(count) for _ in range(2 * G.n)])
    fields = [_edge_field(i, t, pos) for i, t in _edges(G)]
    integrand = _integrand(fields, weight)
    masks = _masks(fields, cfg.eta)
    vals = [float(np.mean(integrand * mask)) for mask in masks]
    r2, err = _richardson(vals)
    norm = _norm(G.n)
    sd = float(np.std(integrand * masks[2])) / math.sqrt(count)
    return WeightResult(r2 / norm, err / norm + sd / norm + 1e-12, count,
                        cfg.seed)
