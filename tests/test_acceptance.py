"""End-to-end acceptance checks for the deformation-quantization engine.

Each test exercises one headline guarantee: exact star-product values,
associativity, structural identities of the coefficient operators, the graph
backends, the sphere quantization harness, and CLI determinism.  Tolerances
and time budgets are asserted explicitly.
"""

import itertools
import math
import random
import sys
import time
from fractions import Fraction

import numpy as np

from starq.jets import (
    I, Jet, Scalar, laplacian, metric_from_potential, mi_deg, mi_range,
    poisson_bracket,
)
from starq.formal import (
    DiffOp, NuDiffOp, assoc_defect, dual_star, invert_transform, ops_agree,
    star_eval, tables_agree, transform_from_star,
)
from starq.karabegov import (
    bt_star_from, flat_potential, fs_potential, karabegov_star,
    reference_potentials,
)
from starq.graphs import (
    IntegrationConfig, L, PoissonBivector, Poly, R,
    enumerate_kgraphs, gammelgaard_star, kontsevich_star, kontsevich_weight,
    moyal_star, star_poly_series,
)
from starq.cp1 import (
    AsymSeries, adjointness_check, berezin_defect_series,
    berezin_transform_num, bms_suite, contravariant_reconstruct,
    epsilon_function, integral_exact, operator_norm, surjectivity_rank,
    toeplitz_matrix, trace_identity, tuynman_defect,
)
from starq.symbols import (
    ObservableFn, coord_x_observable, height_observable, laplacian_fn,
    make_context,
)
from starq.cli import main

TWO_PI = 2 * math.pi


def zj(D, n=1, i=0):
    return Jet.variable(i, n, D)


def zbj(D, n=1, i=0):
    return Jet.variable(i, n, D, "anti")


def random_jet(rng, n, D, deg=2):
    """Dense-ish random jet of total degree <= deg with small exact entries."""
    keys = [(h, a) for h in mi_range(n, deg) for a in mi_range(n, deg)
            if mi_deg(h) + mi_deg(a) <= deg]
    terms = {}
    for key in keys:
        if rng.random() < 0.6:
            terms[key] = Scalar(Fraction(rng.randint(-3, 3)),
                                Fraction(rng.randint(-3, 3)))
    return Jet(n, D, terms)


def sphere_points(k=12, seed=3):
    rng = np.random.default_rng(seed)
    cth = rng.uniform(-0.9, 0.9, k)
    phi = rng.uniform(0, TWO_PI, k)
    return np.sqrt((1 - cth) / (1 + cth)) * np.exp(1j * phi)


# ---------------------------------------------------------------------------
# 1. flat star product, exact values

def test_01_flat_star_exact_values():
    start = time.monotonic()
    D = 12
    t = karabegov_star(flat_potential(D), 2)
    out = star_eval(t, zbj(D), zj(D))
    assert out[0] == zj(D) * zbj(D)
    assert out[1] == Jet.constant(1, 1, D)
    assert out[2].is_zero()
    out = star_eval(t, zbj(D) * zbj(D), zj(D) * zj(D))
    assert out[0] == zj(D) * zj(D) * zbj(D) * zbj(D)
    assert out[1] == (zj(D) * zbj(D)).scale(4)
    assert out[2] == Jet.constant(2, 1, D)
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 2. associativity through nu^4, both product families, three potentials

def test_02_associativity_through_order_four():
    start = time.monotonic()
    N = 4
    rng = random.Random(20260823)
    cases = [
        # polynomial potentials: every coefficient is exact, defect must be
        # identically zero in the truncated ring
        ("flat", flat_potential(14), None, None),
        ("aniso", flat_potential(14, n=2, weights=[1, 2]), None, None),
        # log potential: coefficients are reliable below a degree cut that
        # erodes by the total derivative order of the triple product
        ("fs", fs_potential(26), 12, 4),
    ]
    for name, P, win_k, win_bt in cases:
        kt = karabegov_star(P, N)
        bt = bt_star_from(P, N)
        pool = [random_jet(rng, P.n, P.D) for _ in range(20)]
        for i in range(20):
            f, g, h = pool[i], pool[(i + 7) % 20], pool[(i + 13) % 20]
            for table, window in ((kt, win_k), (bt, win_bt)):
                for d in assoc_defect(table, f, g, h):
                    if window is None:
                        assert d.is_zero(), name
                    else:
                        assert d.truncate(window).is_zero(), name
    assert time.monotonic() - start < 120.0


# ---------------------------------------------------------------------------
# 3. first-order coefficient identities and the Poisson bracket

def test_03_first_order_coefficient_identities():
    for flavor in ("anti_wick", "wick"):
        D, N = (14, 2) if flavor == "anti_wick" else (16, 2)
        for name, P in reference_potentials(D).items():
            n = P.n
            if flavor == "anti_wick":
                t = karabegov_star(P, N)
                window = D - (N + 2) - 2
            else:
                t = bt_star_from(P, N)
                assert t.convention == "wick", name
                window = D - (3 * N + 2) - 2
            m = metric_from_potential(P.phi_minus1)
            probes = [Jet.monomial(h, a, n, D)
                      for h in mi_range(n, 2) for a in mi_range(n, 2)]
            for f in probes[:6]:
                for g in probes[:6]:
                    expect = Jet.zero(n, D)
                    for i in range(n):
                        for j in range(n):
                            if flavor == "anti_wick":
                                expect = expect + (m.g_inv[i][j]
                                                   * f.diff(i, "anti")
                                                   * g.diff(j, "holo"))
                            else:
                                expect = expect - (m.g_inv[i][j]
                                                   * f.diff(i, "holo")
                                                   * g.diff(j, "anti"))
                    got = t.C[1].apply(f, g)
                    assert (got - expect).truncate(window).is_zero(), name
                    # bracket from the antisymmetrized first coefficient
                    anti = t.C[1].apply(f, g) - t.C[1].apply(g, f)
                    br = poisson_bracket(f, g, m)
                    assert (br - anti.scale(I)).truncate(window).is_zero(), name


# ---------------------------------------------------------------------------
# 4. formal transform structure and round trips

def test_04_transform_orders():
    D, N = 14, 2
    for name, P in reference_potentials(D).items():
        n = P.n
        t = karabegov_star(P, N)
        Iop = transform_from_star(t)
        assert Iop.orders[0] == DiffOp.identity(n, D), name
        m = metric_from_potential(P.phi_minus1)
        window = D - (N + 2) - 4
        probes = [Jet.monomial(h, a, n, D)
                  for h in mi_range(n, 2) for a in mi_range(n, 2)]
        for f in probes:
            got = Iop.orders[1].apply(f)
            assert (got - laplacian(f, m)).truncate(window).is_zero(), name
    # flat second order is half the squared Laplace operator
    t = karabegov_star(flat_potential(D), N)
    Iop = transform_from_star(t)
    lap = DiffOp(1, D, [(Jet.constant(1, 1, D), (1,), (1,))])
    expect = NuDiffOp(1, D, N, [DiffOp.identity(1, D), lap,
                                lap.compose(lap).scale(Scalar(Fraction(1, 2)))])
    assert ops_agree(Iop, expect)


def test_04_round_trips_through_order_four():
    N = 4
    for P, up_to in ((flat_potential(14), None), (fs_potential(34), 4)):
        t = karabegov_star(P, N)
        # swapping the arguments twice is the identity on the nose
        for k in range(N + 1):
            assert t.C[k].swap().swap() == t.C[k]
        # the second dual is taken against the inverse transform
        Iop = transform_from_star(t)
        t2 = dual_star(t, Iop)
        t3 = dual_star(t2, invert_transform(Iop))
        assert tables_agree(t3, t, up_to=up_to)


# ---------------------------------------------------------------------------
# 5. graph-expansion star product agrees with the recursion

def test_05_weighted_graph_expansion_matches_recursion():
    D, N = 14, 2
    for name, P in reference_potentials(D).items():
        # gammelgaard_star compares its terms with the recursion's and
        # raises on any mismatch; the comparison below is belt and braces
        gt = gammelgaard_star(P, N)
        kt = karabegov_star(P, N)
        window = D - (N + 2) - 2 * N
        assert tables_agree(gt, kt, up_to=window), name


# ---------------------------------------------------------------------------
# 6. configuration-space graphs: counts, weights, closed form, associativity

def brute_force_graph_count(n):
    """Independent count of admissible graphs: each vertex picks an ordered
    pair of distinct targets among the other vertices and both ground points."""
    verts = list(range(n))
    count = 0
    target_sets = []
    for v in verts:
        opts = [u for u in verts if u != v] + [L, R]
        target_sets.append([(a, b) for a in opts for b in opts if a != b])
    for combo in itertools.product(*target_sets):
        count += 1
    return count if n else 1


def test_06_graph_backend():
    start = time.monotonic()
    assert len(enumerate_kgraphs(1)) == brute_force_graph_count(1) == 2
    assert len(enumerate_kgraphs(2)) == brute_force_graph_count(2) == 36
    cfg = IntegrationConfig()
    for G in enumerate_kgraphs(1):
        w = kontsevich_weight(G, cfg)
        assert abs(w.value - 0.5) < 1e-3
    # constant coefficients: the expansion must match the closed-form
    # exponential series through second order
    a = PoissonBivector.constant([[0, 1], [-1, 0]])
    x, y = Poly.variable(0, 2), Poly.variable(1, 2)
    f = x * x * y
    g = x * y + y * y
    ks = kontsevich_star(a, f, g, 2, cfg)
    ms = moyal_star([[0, 1], [-1, 0]], f, g, 2)
    for got, want in zip(ks, ms):
        assert (got - want).max_abs_coeff() < 5e-3
    # associativity on degree-<=3 monomials, truncated at order 2
    mons = [x * x * y, x * y, y * y * y]
    fg = kontsevich_star(a, mons[0], mons[1], 2, cfg)
    gh = kontsevich_star(a, mons[1], mons[2], 2, cfg)
    lhs = star_poly_series(a, fg, [mons[2]], 2, cfg)
    rhs = star_poly_series(a, [mons[0]], gh, 2, cfg)
    for p, q in zip(lhs, rhs):
        assert p.max_abs_coeff() == 0 or (p - q).max_abs_coeff() <= 1e-2
    assert time.monotonic() - start < 600.0


# ---------------------------------------------------------------------------
# 7. sphere quantization, exact structure

def test_07_sphere_exact_structure():
    for m in (6, 9):
        ctx = make_context(m)
        assert ctx.dim == m + 1
        vals = [epsilon_function(z0, ctx) for z0 in sphere_points(25)]
        assert max(vals) - min(vals) < 1e-10
        assert abs(vals[0] - (m + 1) / TWO_PI) < 1e-10
        for f in (ObservableFn.constant(1), height_observable(),
                  coord_x_observable()):
            _, _, defect = trace_identity(f, ctx)
            assert defect < 1e-10
            T = toeplitz_matrix(f, ctx)
            assert np.max(np.abs(T - T.conj().T)) < 1e-12


# ---------------------------------------------------------------------------
# 8. operator-norm asymptotics for the height function

def test_08_norm_asymptotics():
    h = height_observable()
    pts = []
    for m in (8, 16, 32, 64, 128):
        nrm = operator_norm(toeplitz_matrix(h, make_context(m)))
        assert abs(nrm - m / (m + 2)) < 1e-10
        pts.append((m, 1.0 - nrm))
    series = AsymSeries.from_points(pts)
    assert abs(series.fit[1] + 1) < 0.05


# ---------------------------------------------------------------------------
# 9. averaging-transform asymptotics

def test_09_averaging_transform_asymptotics():
    h = height_observable()
    series = berezin_defect_series(h, laplacian_fn(h), sphere_points(12),
                                   (8, 16, 32, 64, 128))
    assert abs(series.fit[1] + 1) < 0.15
    for m in (8, 16, 32, 64, 128):
        got = berezin_transform_num(h, 0j, make_context(m))
        assert abs(got - m / (m + 2)) < 1e-10


# ---------------------------------------------------------------------------
# 10. commutator and product defect asymptotics

def test_10_commutator_and_product_asymptotics():
    h, x = height_observable(), coord_x_observable()
    _, sb, sc = bms_suite(h, x, (8, 16, 32, 64, 128))
    for series in (sb, sc):
        assert abs(series.fit[1] + 1) < 0.2
        vals = [v for _, v in series.points]
        assert all(a > b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# 11. prequantization/Toeplitz comparison identity

def test_11_quantization_comparison_identity():
    h = height_observable()
    for m in (4, 8, 16):
        assert tuynman_defect(h, make_context(m)) < 1e-8


# ---------------------------------------------------------------------------
# 12. symbol calculus

def test_12_symbol_calculus():
    ctx = make_context(8)
    rng = np.random.default_rng(11)
    A = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    A = A + A.conj().T
    assert adjointness_check(A, height_observable(), ctx) < 1e-8
    assert contravariant_reconstruct(height_observable(),
                                     make_context(4)) < 1e-6
    for m in range(1, 9):
        assert surjectivity_rank(make_context(m)) == (m + 1) ** 2


# ---------------------------------------------------------------------------
# 13. trace scaling against the phase-space average

def test_13_trace_scaling():
    f = ObservableFn(terms=((1.0, 0, 0, 1),))
    mean = integral_exact(f) / TWO_PI
    m = 128
    tr = np.trace(toeplitz_matrix(f, make_context(m))).real
    assert abs(tr / m - mean) / mean <= 0.05


# ---------------------------------------------------------------------------
# 14. CLI determinism across runs and worker counts

def invoke(argv):
    import io

    buf = io.BytesIO()

    class _Stdout:
        buffer = buf

        @staticmethod
        def write(s):
            buf.write(s.encode())

        @staticmethod
        def flush():
            pass

    old = sys.stdout
    sys.stdout = _Stdout()
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


PIPELINES = [
    ["star-karabegov", "--potential", "flat", "--order", "2"],
    ["star-bt", "--potential", "flat", "--order", "2"],
    ["star-gammelgaard", "--potential", "flat", "--order", "2"],
    ["star-kontsevich", "--order", "1"],
    ["graphs-enumerate", "--n", "2"],
    ["weights", "--n", "1"],
    ["cp1-toeplitz", "--m", "4", "--expr", "(1 - zz) / (1+zz)"],
    ["cp1-berezin", "--expr", "(1 - zz) / (1+zz)", "--m-list", "8,16"],
    ["cp1-suite", "--suite", "bms", "--m-list", "8,16"],
]


def test_14_cli_determinism():
    for argv in PIPELINES:
        code1, out1 = invoke(argv)
        code2, out2 = invoke(argv)
        code3, out3 = invoke(argv)
        assert code1 == code2 == code3 == 0, argv
        assert out1 == out2 == out3, argv
