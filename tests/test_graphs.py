"""Graph enumeration, numerical weights, and graph-built star products."""

from dataclasses import replace

import pytest

import starq.jets
from starq.karabegov import (
    flat_potential, fs_potential, karabegov_star, reference_potentials,
)
from starq.graphs import (
    CrossCheckFailure, GGraph, IntegrationConfig, IntegrationFailure, KGraph,
    L, R, PoissonBivector, Poly, ResourceGuard, WeightResult,
    d_gamma, enumerate_ggraphs, enumerate_kgraphs, gammelgaard_star,
    kontsevich_star, kontsevich_weight, moyal_star, star_poly_series,
)


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


def test_weight_deterministic():
    cfg = IntegrationConfig(grid_nodes=400)
    g = KGraph(1, ((L, R),))
    w1 = kontsevich_weight(g, cfg)
    w2 = kontsevich_weight(g, cfg)
    assert w1 == w2


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
    gradients cover each of its 800 rows exactly once; each 4D boundary
    field once; the (1, 2) field once per slice of the first axis; and no
    gradient for the (2, 1) field.  With only the weight cache emptied, a
    second run evaluates nothing and prints the same bytes.  Cached 4D
    arrays are read-only, and the only full-grid arrays among them are the
    four (1, 2) columns: no full weight and no squared distance."""
    import numpy as np
    from starq import graphs, quadrature
    from starq.cli import main
    edges, grads = [], []

    def counted_field(i, t, pos, _field=quadrature._edge_field):
        edges.append((i, t))
        return _field(i, t, pos)
    monkeypatch.setattr(quadrature, "_edge_field", counted_field)
    for name in ("_grad_phi_boundary", "_grad_phi_full"):
        def counted(zx, zy, *rest, _name=name, _grad=getattr(quadrature, name)):
            shape = np.broadcast_shapes(np.shape(zx), np.shape(zy))
            grads.append((_name, shape, np.array(zx), rest))
            return _grad(zx, zy, *rest)
        monkeypatch.setattr(quadrature, name, counted)
    graphs._WEIGHT_CACHE.clear()
    for cached in (quadrature._pair_integral_2d, quadrature._grid_4d,
                   quadrature._grid_edge_field):
        cached.cache_clear()
    assert main(["weights", "--n", "2"]) == 0
    first = capsys.readouterr().out

    # one pair integral; per target, its row blocks concatenate to the 800
    # chart rows in order, each row once
    assert quadrature._pair_integral_2d.cache_info().misses == 1
    s = (np.arange(800) + 0.5) / 800
    ((X, _),), _ = quadrature._chart([s[:, None], s[None, :]])
    pair = [g for g in grads if g[1][-1] == 800]
    assert {g[0] for g in pair} == {"_grad_phi_boundary"}
    assert {rest for *_, rest in pair} == {(0.0,), (1.0,)}
    for w in (0.0, 1.0):
        rows = [zx.ravel() for *_, zx, rest in pair if rest == (w,)]
        assert np.concatenate(rows).tobytes() == X.ravel().tobytes()

    # 4D fields: each (vertex, boundary target) once; every full gradient
    # belongs to the (1, 2) field (vertex 1 at z, vertex 2's axes at w) and
    # its slices of vertex 1's x axis concatenate to that axis, each once
    grid = [g for g in grads if g[1][-1] != 800]
    (x1, _), (x2, y2) = quadrature._grid_4d()[0]
    boundary = [(zx.shape, rest) for name, _, zx, rest in grid
                if name == "_grad_phi_boundary"]
    assert 0 < len(boundary) == len(set(boundary)) <= 4
    full = [(zx, rest) for name, _, zx, rest in grid
            if name == "_grad_phi_full"]
    assert full and all(rest[0] is x2 and rest[1] is y2 for _, rest in full)
    assert np.concatenate([zx.ravel() for zx, _ in full]).tobytes() \
        == x1.ravel().tobytes()
    assert (2, 1) not in edges
    assert edges.count((1, 2)) == len(full)
    assert len(grads) == len(edges) + len(pair)

    graphs._WEIGHT_CACHE.clear()
    edges.clear()
    grads.clear()
    assert main(["weights", "--n", "2"]) == 0
    assert edges == [] and grads == []
    assert capsys.readouterr().out == first

    pos, factors = quadrature._grid_4d()
    axis_arrays = [a for xy in pos for a in xy] + list(factors)
    assert all(a.size == 24 for a in axis_arrays)
    for a in axis_arrays:
        with pytest.raises(ValueError):
            a[0] = 0.0
    owned = []
    for edge in ((1, L), (1, R), (2, L), (2, R), (1, 2), (2, 1)):
        for _, values in quadrature._grid_edge_field(*edge):
            with pytest.raises(ValueError):
                values[0] = 0.0
            if values.size == 24 ** 4 and values.base is None:
                owned.append(values)
    assert len(owned) == 4
    assert all(a is b for a, (_, b) in
               zip(owned, quadrature._grid_edge_field(1, 2)))


def _full_grid_pair_integral(p, q, M, eta):
    """The 2D pair integral on the full M x M grid in one pass."""
    import numpy as np
    from starq import quadrature
    s = (np.arange(M) + 0.5) / M
    ((X, Y),), W = quadrature._chart([s[:, None], s[None, :]])
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
                                     (200, 1.0, 1.0), (128, 0.0, 1.0)])
def test_row_blocked_pair_integral_matches_full_grid(M, p, q):
    """The pair integral filled in row blocks equals one full-grid pass bit
    for bit: at the default M = 800, at M = 200 (three blocks and eight
    rows) and at M = 128, a multiple of the block."""
    from starq import quadrature
    eta = IntegrationConfig().eta
    got = quadrature._pair_integral_2d.__wrapped__(p, q, M, eta)
    want = _full_grid_pair_integral(p, q, M, eta)
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_reverse_internal_edge_is_a_view_of_the_forward_field():
    """The 4D field of the edge (2, 1) is read-only transposed views of the
    (1, 2) columns, and both fields equal a direct _edge_field build bit
    for bit."""
    import numpy as np
    from starq import quadrature
    pos = quadrature._grid_4d()[0]
    fields = {e: quadrature._grid_edge_field(*e) for e in ((1, 2), (2, 1))}
    for (i, t), cols in fields.items():
        want_cols = quadrature._edge_field(i, t, pos)
        assert [c for c, _ in cols] == [c for c, _ in want_cols]
        for (_, got), (_, want) in zip(cols, want_cols):
            assert got.shape == want.shape
            assert np.ascontiguousarray(got).tobytes() \
                == np.ascontiguousarray(want).tobytes()
    for (_, rev), (_, fwd) in zip(fields[2, 1], fields[1, 2]):
        assert np.shares_memory(rev, fwd)
        assert not rev.flags.writeable
        assert not rev.flags.c_contiguous
        with pytest.raises(ValueError):
            rev[0, 0, 0, 0] = 0.0


def _full_grid_masks(edges, pos, eta):
    """The excision masks from full-grid squared distances in one pass."""
    from starq import quadrature
    out = []
    for e in (eta, eta / 2, eta / 4):
        mask = None
        for i, t in edges:
            far = quadrature._edge_dist2(i, t, pos) > e ** 2
            mask = far if mask is None else mask & far
        out.append(mask)
    return out


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
    eta = IntegrationConfig().eta
    rng = np.random.default_rng(5)
    mc_pos, _ = quadrature._chart([rng.random(40000) for _ in range(4)])
    grid_pos = quadrature._grid_4d()[0]
    for G in enumerate_kgraphs(2):
        edges = quadrature._edges(G)
        for pos in (grid_pos, mc_pos):
            got = quadrature._masks(edges, pos, eta)
            want = _full_grid_masks(edges, pos, eta)
            assert [m.shape for m in got] == [m.shape for m in want]
            assert [m.tobytes() for m in got] == [m.tobytes() for m in want]
    ref, _ = _meshgrid_chart()
    for i, t in ((1, 2), (2, 1)):
        dist2 = np.broadcast_to(quadrature._edge_dist2(i, t, grid_pos),
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
    """Blockwise determinants, each block scaled by its slice of the
    weight, equal one np.linalg.det call over the full stack times the full
    weight, bit for bit: on the 24^4 grid against the meshgrid weight (24
    leading slices in blocks of one, or of five with a short last block),
    and on 40000 Monte Carlo samples, which are not a multiple of the
    block, with the weight given whole or as its four factors."""
    import numpy as np
    from starq import quadrature
    if block is not None:
        monkeypatch.setattr(quadrature, "_DET_BLOCK", block)
    rng = np.random.default_rng(5)
    mc_flat = [rng.random(40000) for _ in range(4)]
    mc_pos, mc_weight = quadrature._chart(mc_flat)
    _, mc_factors = quadrature._chart_factors(mc_flat)
    _, grid_weight = _meshgrid_chart()
    internal = [g for g in enumerate_kgraphs(2) if g.has_internal_edge()]
    for G in (internal[0], internal[-1]):
        edges = quadrature._edges(G)
        grid_fields = [quadrature._grid_edge_field(i, t) for i, t in edges]
        mc_fields = [quadrature._edge_field(i, t, mc_pos) for i, t in edges]
        cases = ((grid_fields, quadrature._grid_4d()[1], grid_weight),
                 (mc_fields, (mc_weight,), mc_weight),
                 (mc_fields, mc_factors, mc_weight))
        for fields, factors, weight in cases:
            got = quadrature._integrand(fields, factors)
            want = _one_det_integrand(fields, weight)
            assert got.tobytes() == want.tobytes()


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
    ((X, Y),), _ = quadrature._chart([s[:, None], s[None, :]])
    mc, _ = quadrature._chart([rng.random(20000) for _ in range(4)])
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
        assert (got - want).max_abs_coeff() < 5e-3


def test_kontsevich_assoc_defect_small():
    a = symplectic2d()
    x, y = xy()
    f, g, h = x * y, x + y, y * y
    fg = kontsevich_star(a, f, g, 2)
    gh = kontsevich_star(a, g, h, 2)
    lhs = star_poly_series(a, fg, [h], 2)
    rhs = star_poly_series(a, [f], gh, 2)
    for p, q in zip(lhs, rhs):
        assert (p - q).max_abs_coeff() < 1e-2


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


def test_gammelgaard_matches_recursion():
    D = 14
    for name, P in reference_potentials(D).items():
        t = gammelgaard_star(P, 2)  # raises CrossCheckFailure if off
        assert t.convention == "karabegov_anti_wick", name


def test_gammelgaard_crosscheck_detects_corruption(monkeypatch):
    """A graph expansion contracted against a doubled inverse metric fails
    the cross-check; the recursion it is checked against keeps the true
    metric."""
    exact = starq.jets.metric_from_potential

    def doubled(phi):
        m = exact(phi)
        return replace(m, g_inv=tuple(tuple(x.scale(2) for x in row)
                                      for row in m.g_inv))
    monkeypatch.setattr(starq.jets, "metric_from_potential", doubled)
    with pytest.raises(CrossCheckFailure):
        gammelgaard_star(fs_potential(14), 2)
