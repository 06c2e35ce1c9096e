"""Graph enumeration, numerical weights, and graph-built star products."""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import starq.graphs
import starq.jets
from starq.formal import BudgetExceeded
from starq.karabegov import FormalPotential, fs_potential, reference_potentials
from starq.graphs import (
    CrossCheckFailure, IntegrationConfig, IntegrationFailure, KGraph, L, R,
    PoissonBivector, Poly, ResourceGuard, d_gamma, enumerate_ggraphs,
    enumerate_kgraphs, gammelgaard_star, kontsevich_star, kontsevich_weight,
)

from paper_checks import max_abs_coeff, moyal_star, star_poly_series
from test_karabegov import dense_potential, nonflat_n2_potential


def _usable_cpus(monkeypatch, count):
    """Make kontsevich_weights see count usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)))


def xy():
    return Poly.variable(0, 2), Poly.variable(1, 2)


def symplectic2d():
    return PoissonBivector.constant([[0, 1], [-1, 0]])


# ---------------------------------------------------------------------------
# enumeration

def test_kgraph_counts():
    assert len(enumerate_kgraphs(0)) == 1
    assert len(enumerate_kgraphs(1)) == 2
    assert len(enumerate_kgraphs(2)) == 36


def test_kgraph_guards():
    with pytest.raises(ResourceGuard):
        enumerate_kgraphs(4)
    with pytest.raises(ValueError):
        KGraph(1, ((L, L),))
    with pytest.raises(ValueError):
        KGraph(1, ((1, R),))  # self-loop


def test_kgraph_parity_and_canonical():
    g = KGraph(1, ((R, L),))
    assert g.order_parity() == -1
    assert g.canonical() == KGraph(1, ((L, R),))
    assert g.canonical().canonical() == g.canonical()
    # the weight cache is keyed by the canonical graph and the config's value
    cfg = dict(grid_nodes=200, tol=1.0)
    w = kontsevich_weight(g, IntegrationConfig(**cfg))
    assert kontsevich_weight(g.canonical(), IntegrationConfig(**cfg)) is w
    assert kontsevich_weight(g, IntegrationConfig(grid_nodes=201, tol=1.0)) \
        is not w


# ---------------------------------------------------------------------------
# operators of admissible graphs

def test_d_gamma_single_edge():
    a = symplectic2d()
    x, y = xy()
    gLR = KGraph(1, ((L, R),))
    gRL = KGraph(1, ((R, L),))
    assert d_gamma(gLR, a, x, y) == Poly.constant(1.0, 2)
    assert d_gamma(gRL, a, x, y) == Poly.constant(-1.0, 2)
    # the single-edge operator is the full bivector contraction
    f = x * x * y
    g = x * y
    br = Poly(2, {})
    for i in range(2):
        for j in range(2):
            br = br + a.alpha[i][j] * f.diff(i) * g.diff(j)
    assert d_gamma(gLR, a, f, g) == br


def test_d_gamma_internal_edge_labeling():
    # graph with one internal edge; compare against a direct evaluation of
    # sum a^{i1 i2} (d_{i1} a^{i3 i4}) (d_{i2} d_{i3} f) (d_{i4} g)
    x, y = xy()
    one = Poly.constant(1.0, 2)
    a12 = one + x  # position-dependent bivector
    alpha = [[Poly(2, {}), a12], [-a12, Poly(2, {})]]
    a = PoissonBivector(2, alpha)
    f = x * x * y
    g = x * y + y * y
    G = KGraph(2, ((2, L), (L, R)))
    expect = Poly(2, {})
    for i1 in range(2):
        for i2 in range(2):
            for i3 in range(2):
                for i4 in range(2):
                    term = a.alpha[i1][i2] * a.alpha[i3][i4].diff(i1)
                    term = term * f.diff(i2).diff(i3) * g.diff(i4)
                    expect = expect + term
    assert d_gamma(G, a, f, g) == expect


# ---------------------------------------------------------------------------
# weights

def test_order1_weights_half():
    cfg = IntegrationConfig()
    for G in enumerate_kgraphs(1):
        w = kontsevich_weight(G, cfg)
        assert abs(w.value - 0.5) < 1e-3
        assert w.error_estimate < cfg.tol


def test_weight_deterministic(monkeypatch):
    """Two computations, not one computation and a cache hit, give the same
    result."""
    cfg = IntegrationConfig(grid_nodes=400)
    g = KGraph(1, ((L, R),))
    results = []
    for _ in range(2):
        monkeypatch.setattr(starq.graphs, "_WEIGHT_CACHE", {})
        w = kontsevich_weight(g, cfg)
        results.append((w.value, w.error_estimate, w.samples_or_cells,
                        w.seed))
    assert results[0] == results[1]


def test_weight_backends_agree():
    g = KGraph(1, ((L, R),))
    wg = kontsevich_weight(g, IntegrationConfig(method="grid"))
    wm = kontsevich_weight(g, IntegrationConfig(method="mc", samples=400_000,
                                                tol=5e-2))
    assert abs(wg.value - wm.value) < 1e-2


def test_order2_boundary_weights():
    cfg = IntegrationConfig()
    g = KGraph(2, ((L, R), (L, R)))
    w = kontsevich_weight(g, cfg)
    assert abs(w.value - 0.125) < 1e-3
    g2 = KGraph(2, ((R, L), (L, R)))
    w2 = kontsevich_weight(g2, cfg)
    assert abs(w2.value - 0.125) < 1e-3
    assert g2.order_parity() == -1


def test_weight_grid_fields_built_once(monkeypatch, capsys):
    """weights --n 2 takes one 2D pair integral, whose two boundary
    gradients cover each of its 800 rows exactly once, and builds the 4D
    grid's axes once.  Each 4D integrand takes every edge's field once per
    det block, a single slice of the first axis, so every gradient works on
    at most 24^3 points and the slices of each edge concatenate to vertex
    1's x axis.  With only the weight cache emptied, a second run takes no
    pair-integral gradient, takes the same 4D fields again and prints the
    same bytes.  The cached axis arrays are read-only.  One usable CPU
    keeps every graph in this process, where the counters are."""
    import numpy as np
    from starq import graphs, quadrature
    from starq.cli import main
    _usable_cpus(monkeypatch, 1)
    graphs_edges, grads = [], []

    def counted_integrand(edges, pos, factors, eta,
                          _integrand=quadrature._integrand):
        graphs_edges.append((edges, []))
        return _integrand(edges, pos, factors, eta)

    def counted_edge(i, t, pos, _edge=quadrature._edge):
        if len(pos) == 2:             # a 4D block, not a pair-integral row
            graphs_edges[-1][1].append((i, t, np.array(pos[0][0])))
        return _edge(i, t, pos)
    monkeypatch.setattr(quadrature, "_integrand", counted_integrand)
    monkeypatch.setattr(quadrature, "_edge", counted_edge)
    for name in ("_grad_phi_boundary", "_grad_phi_full"):
        def counted(zx, zy, *rest, _name=name, _grad=getattr(quadrature, name)):
            shape = np.broadcast_shapes(np.shape(zx), np.shape(zy),
                                        *map(np.shape, rest))
            grads.append((_name, shape, np.array(zx), rest))
            return _grad(zx, zy, *rest)
        monkeypatch.setattr(quadrature, name, counted)
    graphs._WEIGHT_CACHE.clear()
    for cached in (quadrature._pair_integral_2d, quadrature._grid_4d):
        cached.cache_clear()
    assert main(["weights", "--n", "2"]) == 0
    first = capsys.readouterr().out

    # one pair integral; per target, its row blocks concatenate to the 800
    # chart rows in order, each row once
    assert quadrature._pair_integral_2d.cache_info().misses == 1
    assert quadrature._grid_4d.cache_info().misses == 1
    s = (np.arange(800) + 0.5) / 800
    ((X, _),), _ = quadrature._chart_factors([s[:, None], s[None, :]])
    pair = [g for g in grads if g[1][-1] == 800]
    assert {g[0] for g in pair} == {"_grad_phi_boundary"}
    assert {rest for *_, rest in pair} == {(0.0,), (1.0,)}
    for w in (0.0, 1.0):
        rows = [zx.ravel() for *_, zx, rest in pair if rest == (w,)]
        assert np.concatenate(rows).tobytes() == X.ravel().tobytes()

    # 4D fields: per graph, each edge once per first-axis slice, in order
    grid = [g for g in grads if g[1][-1] != 800]
    assert grid and all(shape[0] == 1 and math.prod(shape) <= 24 ** 3
                        for _, shape, *_ in grid)
    assert any(name == "_grad_phi_full" for name, *_ in grid)
    (x1, _), _ = quadrature._grid_4d()[0]
    assert graphs_edges
    for edges, calls in graphs_edges:
        assert [(i, t) for i, t, _ in calls] == list(edges) * 24
        for k in range(len(edges)):
            xs = [x.ravel() for _, _, x in calls[k::len(edges)]]
            assert np.concatenate(xs).tobytes() == x1.ravel().tobytes()
    assert len(grads) == len(pair) + sum(len(c) for _, c in graphs_edges)

    calls = [(edges, [(i, t, x.tobytes()) for i, t, x in c])
             for edges, c in graphs_edges]
    graphs._WEIGHT_CACHE.clear()
    graphs_edges.clear()
    grads.clear()
    assert main(["weights", "--n", "2"]) == 0
    assert [g for g in grads if g[1][-1] == 800] == []
    assert [(edges, [(i, t, x.tobytes()) for i, t, x in c])
            for edges, c in graphs_edges] == calls
    assert capsys.readouterr().out == first

    pos, factors = quadrature._grid_4d()
    axis_arrays = [a for xy in pos for a in xy] + list(factors)
    assert all(a.size == 24 for a in axis_arrays)
    for a in axis_arrays:
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_weights_keep_no_full_grid_array(monkeypatch, capsys):
    """After weights --n 2 from empty caches, no block that a line of
    starq allocated is as large as a full-grid bool array (24^4 bytes):
    nothing of the 4D grid but its axes stays cached.  One usable CPU
    keeps every graph in the traced process."""
    import tracemalloc
    from starq import graphs, quadrature
    from starq.cli import main
    _usable_cpus(monkeypatch, 1)
    package = tracemalloc.Filter(
        True, os.path.join(os.path.dirname(starq.__file__), "*"))
    graphs._WEIGHT_CACHE.clear()
    for cached in (quadrature._pair_integral_2d, quadrature._grid_4d):
        cached.cache_clear()
    tracemalloc.start()
    try:
        assert main(["weights", "--n", "2"]) == 0
        kept = tracemalloc.take_snapshot().filter_traces([package]).traces
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert len(kept) and max(trace.size for trace in kept) < 24 ** 4


def test_pair_integral_peaks_under_integrand_masks_and_a_megabyte():
    """The 800 x 800 pair integral allocates its integrand and three masks
    and less than 1 MB besides: no full-grid product with a mask, and row
    blocks of _PAIR_ROWS rows."""
    import tracemalloc
    from starq import quadrature
    quadrature._chart_factors([0.5, 0.5])
    M = 800
    tracemalloc.start()
    try:
        quadrature._pair_integral_2d.__wrapped__(M, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert M * M * 8 + 3 * M * M < peak < M * M * 8 + 3 * M * M + 10 ** 6


def _full_grid_pair_integral(p, q, M, eta):
    """The 2D pair integral on the full M x M grid in one pass."""
    import numpy as np
    from starq import quadrature
    s = (np.arange(M) + 0.5) / M
    ((X, Y),), factors = quadrature._chart_factors([s[:, None], s[None, :]])
    W = quadrature._product(factors)
    d1x, d1y = quadrature._grad_phi_boundary(X, Y, p)
    d2x, d2y = quadrature._grad_phi_boundary(X, Y, q)
    J = (d1x * d2y - d1y * d2x) * (W / (M * M))
    dist_p = (X - p) ** 2 + Y ** 2
    dist_q = (X - q) ** 2 + Y ** 2
    vals = []
    for e in (eta, eta / 2, eta / 4):
        mask = (dist_p > e ** 2) & (dist_q > e ** 2)
        vals.append(float(np.sum(J * mask)))
    return quadrature._richardson(vals)


@pytest.mark.parametrize("M, p, q", [(800, 0.0, 1.0), (200, 0.0, 1.0),
                                     (128, 0.0, 1.0)])
def test_row_blocked_pair_integral_matches_full_grid(M, p, q):
    """The pair integral filled in row blocks equals one full-grid pass to
    the boundary points p = 0 (L) and q = 1 (R) bit for bit: at the default
    M = 800, at M = 200 (three blocks and eight rows) and at M = 128, a
    multiple of the block."""
    from starq import quadrature
    eta = IntegrationConfig().eta
    got = quadrature._pair_integral_2d.__wrapped__(M, eta)
    want = _full_grid_pair_integral(p, q, M, eta)
    assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize("block", [None, 5 * 24 ** 3])
def test_edge_fields_per_block_match_the_full_grid(monkeypatch, block):
    """Every edge's field taken on the blocks' slices of the 4D grid
    concatenates to its field on the whole grid, bit for bit and with the
    same columns (blocks of one slice, or of five with a short last one).
    Both vertices share the axis values, so the edge (2, 1) at (a, b, c, d)
    is the edge (1, 2) at (c, d, a, b) with columns 0, 1 and 2, 3
    swapped."""
    import numpy as np
    from starq import quadrature
    if block is not None:
        monkeypatch.setattr(quadrature, "_DET_BLOCK", block)
    pos = quadrature._grid_4d()[0]
    shape = (24,) * 4
    blocks = quadrature._blocks(shape)

    def whole(values, rows=24):
        return np.ascontiguousarray(
            np.broadcast_to(values, (rows,) + shape[1:]))
    full = {}
    for i, t in ((1, L), (1, R), (2, L), (2, R), (1, 2), (2, 1)):
        with np.errstate(divide="ignore", invalid="ignore"):
            want = quadrature._edge(i, t, pos)[0]
            parts = [quadrature._edge(
                i, t, quadrature._block_pos(pos, shape, lo, hi))[0]
                for lo, hi in blocks]
        assert all([c for c, _ in part] == [c for c, _ in want]
                   for part in parts)
        for k, (_, values) in enumerate(want):
            got = np.concatenate([whole(part[k][1], hi - lo)
                                  for part, (lo, hi) in zip(parts, blocks)])
            assert got.tobytes() == whole(values).tobytes()
        full[i, t] = {c: whole(values) for c, values in want}
    for c, rev in full[2, 1].items():
        fwd = full[1, 2][(c + 2) % 4].transpose(2, 3, 0, 1)
        assert rev.tobytes() == np.ascontiguousarray(fwd).tobytes()


def _full_grid_masks(edges, pos, eta):
    """The excision masks from full-grid squared distances in one pass."""
    from starq import quadrature
    out = []
    for e in (eta, eta / 2, eta / 4):
        mask = None
        for i, t in edges:
            far = quadrature._edge(i, t, pos)[1] > e ** 2
            mask = far if mask is None else mask & far
        out.append(mask)
    return out


def _skip_jacobians(monkeypatch):
    """Make every angle gradient and determinant zero: the excision masks
    read neither, and the 36 graphs' 24^4 Jacobians would take seconds."""
    import numpy as np
    from starq import quadrature
    monkeypatch.setattr(quadrature, "_grad_phi_boundary",
                        lambda zx, zy, w: (0.0, 0.0))
    monkeypatch.setattr(quadrature, "_grad_phi_full",
                        lambda zx, zy, wx, wy: (0.0,) * 4)
    monkeypatch.setattr(np.linalg, "det", lambda a: np.zeros(a.shape[:-2]))


@pytest.mark.parametrize("block", [None, 5 * 24 ** 3])
def test_blockwise_masks_match_full_grid_distances(monkeypatch, block):
    """Masks filled block by block from distances taken on each block equal
    those of full-grid distances, bit for bit: for every n = 2 graph on the
    24^4 grid (blocks of one slice, or of five with a short last one), and
    on 40000 Monte Carlo samples; the squared distance of an internal edge
    is (x1 - x2)^2 + (y1 - y2)^2 on the meshgrid."""
    import numpy as np
    from starq import quadrature
    if block is not None:
        monkeypatch.setattr(quadrature, "_DET_BLOCK", block)
    _skip_jacobians(monkeypatch)
    eta = IntegrationConfig().eta
    rng = np.random.default_rng(5)
    mc = quadrature._chart_factors([rng.random(40000) for _ in range(4)])
    grid_pos = quadrature._grid_4d()[0]
    for G in enumerate_kgraphs(2):
        edges = G.edge_list()
        for pos, factors in (quadrature._grid_4d(), mc):
            got = quadrature._integrand(edges, pos, factors, eta)[1]
            want = _full_grid_masks(edges, pos, eta)
            assert [m.shape for m in got] == [m.shape for m in want]
            assert [m.tobytes() for m in got] == [m.tobytes() for m in want]
    ref, _ = _meshgrid_chart()
    for i, t in ((1, 2), (2, 1)):
        dist2 = np.broadcast_to(quadrature._edge(i, t, grid_pos)[1],
                                ref[0].shape)
        want = (ref[0] - ref[2]) ** 2 + (ref[1] - ref[3]) ** 2
        assert np.ascontiguousarray(dist2).tobytes() == want.tobytes()


def _one_det_integrand(fields, weight):
    """_integrand as one np.linalg.det call on the full, flattened stack."""
    import numpy as np
    dim = len(fields)
    buf = np.zeros((dim, dim, weight.size))
    for r, cols in enumerate(fields):
        for c, values in cols:
            buf[r, c] = np.broadcast_to(values, weight.shape).ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        det = np.linalg.det(buf.transpose(2, 0, 1)).reshape(weight.shape)
        return np.nan_to_num(det * weight, nan=0.0, posinf=0.0, neginf=0.0)


@pytest.mark.parametrize("block", [None, 5 * 24 ** 3])
def test_blockwise_determinant_matches_one_call(monkeypatch, block):
    """Blockwise determinants, each block's fields taken on its slices of
    the points and each block scaled by its slice of the weight, equal one
    np.linalg.det call over the full stack of whole-grid fields times the
    full weight, bit for bit: on the 24^4 grid against the meshgrid weight
    (24 leading slices in blocks of one, or of five with a short last
    block), and on 40000 Monte Carlo samples, which are not a multiple of
    the block, with the weight given whole or as its four factors."""
    import numpy as np
    from starq import quadrature
    if block is not None:
        monkeypatch.setattr(quadrature, "_DET_BLOCK", block)
    rng = np.random.default_rng(5)
    mc_pos, mc_factors = quadrature._chart_factors(
        [rng.random(40000) for _ in range(4)])
    mc_weight = quadrature._product(mc_factors)
    _, grid_weight = _meshgrid_chart()
    internal = [g for g in enumerate_kgraphs(2) if g.has_internal_edge()]
    grid_pos, grid_factors = quadrature._grid_4d()
    for G in (internal[0], internal[-1]):
        edges = G.edge_list()
        cases = ((grid_pos, grid_factors, grid_weight),
                 (mc_pos, (mc_weight,), mc_weight),
                 (mc_pos, mc_factors, mc_weight))
        for pos, factors, weight in cases:
            with np.errstate(divide="ignore", invalid="ignore"):
                fields = [quadrature._edge(i, t, pos)[0] for i, t in edges]
            got, _ = quadrature._integrand(edges, pos, factors, 0.1)
            want = _one_det_integrand(fields, weight)
            assert got.tobytes() == want.tobytes()


def _pair_masks(monkeypatch, M, eta):
    """The three excision masks the pair integral builds, copied as
    _excised receives them."""
    from starq import quadrature
    seen = []

    def recording(J, masks, eta, _excised=quadrature._excised):
        seen.extend(m.copy() for m in masks)
        return _excised(J, masks, eta)
    monkeypatch.setattr(quadrature, "_excised", recording)
    quadrature._pair_integral_2d.__wrapped__(M, eta)
    monkeypatch.undo()
    return seen


def test_excision_masks_are_nested(monkeypatch):
    """The eta mask lies within the eta/2 mask and that within the eta/4
    mask, and the eta/4 mask strictly contains the eta mask: on the 2D pair
    grid, and for every n = 2 graph on the 4D grid and on 40000 Monte Carlo
    samples."""
    import numpy as np
    from starq import quadrature
    eta = IntegrationConfig().eta
    cases = [_pair_masks(monkeypatch, 800, eta)]
    _skip_jacobians(monkeypatch)
    rng = np.random.default_rng(5)
    mc = quadrature._chart_factors([rng.random(40000) for _ in range(4)])
    for G in enumerate_kgraphs(2):
        for pos, factors in (quadrature._grid_4d(), mc):
            cases.append(quadrature._integrand(G.edge_list(), pos, factors,
                                               eta)[1])
    for masks in cases:
        assert len(masks) == 3
        for inner, outer in zip(masks, masks[1:]):
            assert not (inner & ~outer).any()
        assert (masks[2] & ~masks[0]).any()


def _old_grid_weight(G, cfg):
    """grid_weight on an internal-edge graph with each mask's product a
    fresh full-grid array."""
    import numpy as np
    from starq import quadrature
    edges = G.edge_list()
    pos, factors = quadrature._grid_4d()
    integrand, masks = quadrature._integrand(edges, pos, factors, cfg.eta)
    cells = 24 ** 4
    vals = [float(np.sum(integrand * mask)) / cells for mask in masks]
    r2, err = quadrature._richardson(vals)
    norm = quadrature._norm(G.n)
    return starq.graphs.WeightResult(r2 / norm, err / norm + 1e-12, cells,
                                     cfg.seed)


def _old_mc_weight(G, cfg):
    """mc_weight with the chart weight formed whole and each mask's product
    a fresh array."""
    import numpy as np
    from starq import quadrature
    rng = np.random.default_rng(cfg.seed)
    pos, factors = quadrature._chart_factors([rng.random(cfg.samples)
                                              for _ in range(2 * G.n)])
    integrand, masks = quadrature._integrand(
        G.edge_list(), pos, (quadrature._product(factors),), cfg.eta)
    vals = [float(np.mean(integrand * mask)) for mask in masks]
    r2, err = quadrature._richardson(vals)
    norm = quadrature._norm(G.n)
    sd = float(np.std(integrand * masks[2])) / math.sqrt(cfg.samples)
    return starq.graphs.WeightResult(r2 / norm, err / norm + sd / norm + 1e-12,
                                     cfg.samples, cfg.seed)


def test_in_place_masked_sums_match_fresh_products(monkeypatch):
    """Each in-place product of _excised equals the integrand times that
    mask alone in tobytes(), and grid_weight and mc_weight give the values
    of sums over fresh products, bit for bit: on the 4D grid and on 40000
    Monte Carlo samples, for the first and last internal-edge graphs, and
    on the 2D pair grid through the pair integral."""
    import numpy as np
    from starq import quadrature
    cfg = IntegrationConfig(samples=40000)
    internal = [g for g in enumerate_kgraphs(2) if g.has_internal_edge()]
    rng = np.random.default_rng(5)
    mc = quadrature._chart_factors([rng.random(40000) for _ in range(4)])
    for G in (internal[0], internal[-1]):
        edges = G.edge_list()
        for pos, factors in (quadrature._grid_4d(), mc):
            J, masks = quadrature._integrand(edges, pos, factors, cfg.eta)
            assert (J < 0).any() and (J > 0).any()
            want = [(J * mask).tobytes() for mask in masks]
            got = [a.tobytes()
                   for a in quadrature._excised(J, masks, cfg.eta)]
            assert got[::-1] == want
        for new, old in ((quadrature.grid_weight, _old_grid_weight),
                         (quadrature.mc_weight, _old_mc_weight)):
            got, want = new(G, cfg), old(G, cfg)
            assert (got.value.hex(), got.error_estimate.hex()) \
                == (want.value.hex(), want.error_estimate.hex())
            assert got == want
    got = quadrature._pair_integral_2d.__wrapped__(800, cfg.eta)
    want = _full_grid_pair_integral(0.0, 1.0, 800, cfg.eta)
    assert [v.hex() for v in got] == [v.hex() for v in want]


def _meshgrid_chart():
    """The four chart coordinates and the chart weight on the full 24^4
    meshgrid."""
    import numpy as np
    from starq import quadrature
    M = quadrature._GRID_NODES_4D
    axis = (np.arange(M) + 0.5) / M
    U = np.meshgrid(axis, axis, axis, axis, indexing="ij")
    ref = [np.tan(np.pi * (U[0] - 0.5)), np.tan(np.pi * U[1] / 2),
           np.tan(np.pi * (U[2] - 0.5)), np.tan(np.pi * U[3] / 2)]
    weight = np.ones(U[0].shape)
    for k, x in enumerate(ref):
        weight = weight * ((np.pi if k % 2 == 0 else np.pi / 2)
                           * (1 + x ** 2))
    return ref, weight


def test_grid_4d_matches_meshgrid_reference():
    """The broadcast 4D coordinates are those of the chart on the full
    meshgrid, bit for bit; each weight factor lies along its own axis, and
    the factors' product, whole or one first-axis slice at a time, is the
    meshgrid weight."""
    import numpy as np
    from starq import quadrature
    ref, weight = _meshgrid_chart()
    pos, factors = quadrature._grid_4d()
    got = [np.broadcast_to(c, weight.shape) for xy in pos for c in xy]
    for g, r in zip(got, ref):
        assert np.ascontiguousarray(g).tobytes() == r.tobytes()
    M = quadrature._GRID_NODES_4D
    assert [f.shape for f in factors] == [
        tuple(M if d == k else 1 for d in range(4)) for k in range(4)]
    whole = quadrature._product(factors)
    sliced = np.concatenate([
        quadrature._product(np.broadcast_to(f, weight.shape)[a:a + 1]
                            for f in factors) for a in range(M)])
    for got_weight in (whole, sliced):
        assert got_weight.shape == weight.shape
        assert got_weight.tobytes() == weight.tobytes()


def test_angle_gradients_match_two_division_formulas():
    """The one-division gradients equal Im(-1/A + 1/B), -Re(1/A + 1/B) and
    their w-counterparts bit for bit, on both grids and on Monte Carlo
    samples."""
    import numpy as np
    from starq import quadrature
    rng = np.random.default_rng(3)
    s = (np.arange(800) + 0.5) / 800
    ((X, Y),), _ = quadrature._chart_factors([s[:, None], s[None, :]])
    mc, _ = quadrature._chart_factors([rng.random(20000) for _ in range(4)])
    grid, _ = quadrature._grid_4d()
    with np.errstate(divide="ignore", invalid="ignore"):
        for (zx, zy), w in [((X, Y), 0.0), ((X, Y), 1.0), (mc[0], 1.0),
                            (grid[1], 0.0)]:
            A, B = (w - zx) - 1j * zy, (w - zx) + 1j * zy
            want = (np.imag(-1.0 / A + 1.0 / B), -np.real(1.0 / A + 1.0 / B))
            got = quadrature._grad_phi_boundary(zx, zy, w)
            assert all(g.tobytes() == v.tobytes() for g, v in zip(got, want))
        for (zx, zy), (wx, wy) in [mc, mc[::-1], grid, grid[::-1]]:
            A = (wx - zx) + 1j * (wy - zy)
            B = (wx - zx) + 1j * (wy + zy)
            want = (np.imag(-1.0 / A + 1.0 / B), -np.real(1.0 / A + 1.0 / B),
                    np.imag(1.0 / A - 1.0 / B), np.real(1.0 / A - 1.0 / B))
            got = quadrature._grad_phi_full(zx, zy, wx, wy)
            assert all(g.tobytes() == v.tobytes() for g, v in zip(got, want))


def test_weight_guard_and_failure():
    with pytest.raises(ResourceGuard):
        kontsevich_weight(KGraph(3, ((L, R), (L, R), (L, R))))
    with pytest.raises(IntegrationFailure):
        kontsevich_weight(KGraph(1, ((L, R),)),
                          IntegrationConfig(grid_nodes=40, tol=1e-6))


def _misses():
    """The canonical n = 2 graphs in enumeration order: the misses that
    kontsevich_weights deals over its workers from an empty cache."""
    return list(dict.fromkeys(G.canonical() for G in enumerate_kgraphs(2)))


def _labelled_weight(G, cfg):
    """A stand-in for grid_weight: the first place of the graph among the
    canonical n = 2 graphs as its value, the process's pid as its cell
    count."""
    graphs = [g.canonical() for g in enumerate_kgraphs(2)]
    return starq.graphs.WeightResult(float(graphs.index(G)), 0.0,
                                     os.getpid(), cfg.seed)


def test_weights_deal_every_miss_over_forked_workers(monkeypatch):
    """On two usable CPUs the misses alternate between this process and
    one child, each result comes back to its own graph, and the results
    equal those on one CPU; no child is left."""
    from starq import quadrature
    from starq.graphs import kontsevich_weights
    monkeypatch.setattr(quadrature, "grid_weight", _labelled_weight)
    graphs = enumerate_kgraphs(2)
    runs = {}
    for cpus in (1, 2):
        _usable_cpus(monkeypatch, cpus)
        monkeypatch.setattr(starq.graphs, "_WEIGHT_CACHE", {})
        runs[cpus] = kontsevich_weights(graphs)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    here = os.getpid()
    canonical = [G.canonical() for G in graphs]
    assert [w.value for w in runs[2]] == [w.value for w in runs[1]] == [
        float(canonical.index(G)) for G in canonical]
    assert {w.samples_or_cells for w in runs[1]} == {here}
    pids = {G.canonical(): w.samples_or_cells
            for G, w in zip(graphs, runs[2])}
    misses = _misses()
    assert set(pids) == set(misses)
    assert {pids[G] for G in misses[0::2]} == {here}
    (child,) = {pids[G] for G in misses[1::2]}
    assert child != here


_TOL_MESSAGE = "weight error estimate 1.00e+00 exceeds tolerance 5.00e-03"


@pytest.mark.parametrize("failing, error, message", [
    ({1: "raise"}, "FloatingPointError", "child 1"),
    ({0: "raise"}, "FloatingPointError", "here 0"),
    ({1: "raise", 2: "raise"}, "FloatingPointError", "child 1"),
    ({2: "raise", 3: "tol"}, "FloatingPointError", "here 2"),
    ({1: "tol", 2: "raise"}, "IntegrationFailure", _TOL_MESSAGE),
    ({0: "tol", 1: "raise"}, "IntegrationFailure", _TOL_MESSAGE),
])
def test_weights_fail_on_the_first_failing_graph_in_order(
        monkeypatch, capsys, failing, error, message):
    """With two usable CPUs the even misses run here and the odd ones in a
    child.  An exception raised in either process, or an error estimate
    above tol, fails weights --n 2 as one graph at a time would: the first
    failing graph in enumeration order decides, with exit 3 and one JSON
    line, and no child is left."""
    from starq import quadrature
    from starq.cli import main
    misses = _misses()
    here = os.getpid()

    def failing_weight(G, cfg):
        kind = failing.get(misses.index(G))
        if kind == "raise":
            where = "here" if os.getpid() == here else "child"
            raise FloatingPointError(f"{where} {misses.index(G)}")
        return starq.graphs.WeightResult(0.0, float(kind == "tol"), 1,
                                         cfg.seed)
    _usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(quadrature, "grid_weight", failing_weight)
    monkeypatch.setattr(starq.graphs, "_WEIGHT_CACHE", {})
    code = main(["weights", "--n", "2"])
    out, err = capsys.readouterr()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert (code, out) == (3, "")
    assert [json.loads(line) for line in err.splitlines()] == [
        {"error": error, "message": message}]


def test_weights_fail_when_a_worker_dies(monkeypatch, capsys):
    """A child that leaves by os._exit(1) before it sends its result fails
    weights --n 2 with exit 3 and one JSON line, and is reaped."""
    from starq import quadrature
    from starq.cli import main
    here = os.getpid()

    def dying_weight(G, cfg):
        if os.getpid() != here:
            os._exit(1)
        return _labelled_weight(G, cfg)
    _usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(quadrature, "grid_weight", dying_weight)
    monkeypatch.setattr(starq.graphs, "_WEIGHT_CACHE", {})
    code = main(["weights", "--n", "2"])
    out, err = capsys.readouterr()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert (code, out) == (3, "")
    assert [json.loads(line) for line in err.splitlines()] == [
        {"error": "IntegrationFailure",
         "message": "a weight worker exited with status 1 and no result"}]


def test_interrupted_weights_kill_their_workers(monkeypatch):
    """An interrupt in this process's share ends the children at once, and
    reaps them, before it propagates."""
    from starq import quadrature
    from starq.graphs import kontsevich_weights
    here = os.getpid()

    def interrupted_weight(G, cfg):
        if os.getpid() != here:
            time.sleep(60)
        elif G.has_internal_edge():
            raise KeyboardInterrupt
        return _labelled_weight(G, cfg)
    _usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(quadrature, "grid_weight", interrupted_weight)
    monkeypatch.setattr(starq.graphs, "_WEIGHT_CACHE", {})
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        kontsevich_weights(enumerate_kgraphs(2))
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Run weights --n 2 in a fresh interpreter that sees two usable CPUs, with
# the report sent to the file argv[1], and print one JSON line: per fork of
# this process, whether numpy was loaded and how many pair integrals and 4D
# grids quadrature had cached.
_FORK_SPY = """\
import json, os, sys
from starq.cli import main
os.sched_getaffinity = lambda pid: {0, 1}
forks = []
_fork = os.fork


def fork():
    quadrature = sys.modules.get("starq.quadrature")
    forks.append({"numpy": "numpy" in sys.modules, "cached": quadrature and [
        quadrature._pair_integral_2d.cache_info().currsize,
        quadrature._grid_4d.cache_info().currsize]})
    return _fork()


os.fork = fork
assert main(["weights", "--n", "2", "--out", sys.argv[1]]) == 0
print(json.dumps(forks))
"""


def test_weights_load_numpy_and_integrate_nothing_before_forking(tmp_path):
    """On two usable CPUs weights --n 2 forks one child, with numpy loaded,
    so the child does not import it again, and with nothing integrated or
    built: every miss, the pair-integral graphs too, is dealt, and each
    process fills its own caches.  The report keeps the weights-n2 pin."""
    import hashlib
    from test_cli import PINS, _subprocess_env
    report = tmp_path / "weights.json"
    proc = subprocess.run([sys.executable, "-c", _FORK_SPY, str(report)],
                          env=_subprocess_env(), capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == [{"numpy": True, "cached": [0, 0]}]
    assert hashlib.sha256(report.read_bytes()).hexdigest() == json.loads(
        PINS.read_text())["weights-n2"]


# ---------------------------------------------------------------------------
# graph star product vs closed form

def test_kontsevich_star_matches_moyal():
    a = symplectic2d()
    x, y = xy()
    f = x * x * y
    g = x * y + y * y
    ks = kontsevich_star(a, f, g, 2)
    ms = moyal_star([[0, 1], [-1, 0]], f, g, 2)
    for got, want in zip(ks, ms):
        assert max_abs_coeff(got - want) < 5e-3


def test_kontsevich_assoc_defect_small():
    a = symplectic2d()
    x, y = xy()
    f, g, h = x * y, x + y, y * y
    fg = kontsevich_star(a, f, g, 2)
    gh = kontsevich_star(a, g, h, 2)
    lhs = star_poly_series(a, fg, [h], 2)
    rhs = star_poly_series(a, [f], gh, 2)
    for p, q in zip(lhs, rhs):
        assert max_abs_coeff(p - q) < 1e-2


# ---------------------------------------------------------------------------
# weighted source/sink graphs

def test_ggraph_enumeration():
    gs = enumerate_ggraphs(2)
    assert len(gs) == 7
    by_weight = {}
    for g in gs:
        by_weight.setdefault(g.total_weight(), []).append(g)
    assert len(by_weight[0]) == 1 and len(by_weight[1]) == 1
    assert len(by_weight[2]) == 5
    auts = sorted(g.aut for g in by_weight[2])
    assert auts == [1, 2, 2, 2, 2]
    with pytest.raises(ResourceGuard):
        enumerate_ggraphs(3)


def test_ggraph_json_shape():
    g = enumerate_ggraphs(1)[-1]
    blob = g.to_json()
    assert blob["edges"] == [["S", "T"]]
    assert blob["aut"] == 1


def fs_phi_potential(D):
    """Fubini-Study Phi_{-1} with Phi_0 = z zbar / 3 + z zbar (z + zbar) / 2
    and Phi_1 = (z zbar)^2 / 5."""
    z = starq.jets.Jet.variable(0, 1, D)
    zb = starq.jets.Jet.variable(0, 1, D, "anti")
    zz = z * zb
    return FormalPotential(fs_potential(D).phi_minus1, [
        zz.scale(Fraction(1, 3)) + (zz * (z + zb)).scale(Fraction(1, 2)),
        (zz * zz).scale(Fraction(1, 5))])


def test_gammelgaard_matches_recursion():
    """The reference potentials have a diagonal g^{-1} and no weight >= 0
    vertex jet; g^{-1} is off the diagonal for non-flat n = 2, the dense
    n = 1 metric is not radial, and fs-phi has nonzero Phi_0 and Phi_1."""
    D = 14
    potentials = dict(reference_potentials(D),
                      nonflat_n2=nonflat_n2_potential(D),
                      dense=dense_potential(D), fs_phi=fs_phi_potential(D))
    for name, P in potentials.items():
        t = gammelgaard_star(P, 2)  # raises CrossCheckFailure if off
        assert t.convention == "karabegov_anti_wick", name


def _contract_with_doubled_metric(monkeypatch):
    """Make each graph contract against a doubled inverse metric, while the
    recursion gammelgaard_star checks it against keeps the true one."""
    exact = starq.graphs._ggraph_operator
    monkeypatch.setattr(starq.graphs, "_ggraph_operator", lambda G, P, g_inv:
                        exact(G, P, tuple(tuple(x.scale(2) for x in row)
                                          for row in g_inv)))


def test_gammelgaard_crosscheck_detects_corruption(monkeypatch):
    """A graph expansion contracted against a doubled inverse metric fails
    the cross-check; the recursion it is checked against keeps the true
    metric."""
    _contract_with_doubled_metric(monkeypatch)
    with pytest.raises(CrossCheckFailure):
        gammelgaard_star(fs_potential(14), 2)


def test_gammelgaard_refuses_a_negative_window(monkeypatch):
    """At N = 1 the cross-check window D - (N + 2) - 2 is below degree 0
    for D = 3 and 4, where it would pass graphs contracted against a doubled
    inverse metric: those budgets raise BudgetExceeded instead, and D = 5,
    whose window is degree 0, catches the doubling."""
    _contract_with_doubled_metric(monkeypatch)
    for D in (3, 4):
        with pytest.raises(BudgetExceeded):
            gammelgaard_star(fs_potential(D), 1)
    with pytest.raises(CrossCheckFailure):
        gammelgaard_star(fs_potential(5), 1)
