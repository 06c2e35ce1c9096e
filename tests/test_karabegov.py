"""Recursion-built star products: flat oracles, commutation, transforms."""

import functools
import hashlib
import json
import time
from fractions import Fraction

import pytest

from starq.jets import (
    DegenerateMetric, Jet, Scalar, hessian, inverse_metric, jet_det,
    jet_to_json, mi_zero, unit_mi,
)
import starq.jets
import starq.karabegov
from starq.formal import (
    BiDiffOp, DiffOp, StarTable, assoc_defect, star_eval, star_table_to_json,
    transform_from_star,
)
from starq.graphs import gammelgaard_star
from starq.karabegov import (
    FormalPotential, _anti_wick_ops, _commutator, _commutator_sum,
    bt_star_from, flat_potential, fs_potential, karabegov_star,
    left_mult_operator, reference_potentials,
)

from paper_checks import (
    apply_op, conjugation_route, dense_potential, jet_monomial, laplacian,
    mi_range, mult_op, ops_agree, poisson_bracket,
)


def zj(D, n=1, i=0):
    return Jet.variable(i, n, D)


def zbj(D, n=1, i=0):
    return Jet.variable(i, n, D, "anti")


# ---------------------------------------------------------------------------
# left multiplication operator

def test_left_mult_flat_zbar():
    D, N = 12, 2
    P = flat_potential(D)
    L = left_mult_operator([zbj(D)], P, N)
    assert L[0] == mult_op(zbj(D))
    assert L[1] == DiffOp.deriv(1, D, (1, 0))
    assert L[2].is_zero()


def test_left_mult_holomorphic_is_mult():
    D, N = 12, 3
    for P in (flat_potential(D), fs_potential(D)):
        a = zj(D) * zj(D) + zj(D)
        L = left_mult_operator([a], P, N)
        assert L[0] == mult_op(a)
        for k in range(1, N + 1):
            assert L[k].is_zero()


def test_left_mult_closed_form():
    # L_{nu dPhi/dz} = nu (dPhi/dz + d/dz), tested in non-negative grading
    D, N = 14, 3
    for P in (flat_potential(D), fs_potential(D)):
        w = P.phi_minus1.diff(0, "holo")
        L = left_mult_operator([w], P, N)
        expect = (mult_op(w), DiffOp.deriv(1, D, (1, 0))) \
            + (DiffOp.zero(1, D),) * (N - 1)
        assert ops_agree(L, expect, up_to=D - 2 * N - 2)


def test_left_mult_structurally_holomorphic():
    D, N = 14, 3
    P = fs_potential(D)
    L = left_mult_operator([zbj(D) * zbj(D)], P, N)
    for op in L:
        for _, d in op.terms:
            assert sum(d[op.n:]) == 0 or op is L[0]


@pytest.mark.parametrize("name, D, N", [("fs", 24, 6), ("dense", 12, 3)])
def test_left_mult_keeps_each_order_to_its_window(name, D, N):
    """Order m of L_g is reliable through degree D - (m + 2), and the
    recursion keeps no coefficient term above it."""
    P = fs_potential(D) if name == "fs" else dense_potential(D)
    L = left_mult_operator([zbj(D) * zbj(D) + zj(D) * zbj(D)], P, N)
    for m, op in enumerate(L[1:], 1):
        assert not op.is_zero()
        for c, _ in op.terms:
            assert c.drop_above(D - (m + 2)) == c, (m, c)


# ---------------------------------------------------------------------------
# star tables

def test_flat_star_exact_examples():
    start = time.monotonic()
    D, N = 12, 2
    t = karabegov_star(flat_potential(D), N)
    out = star_eval(t, zbj(D), zj(D))
    assert out[0] == zj(D) * zbj(D)
    assert out[1] == Jet.constant(1, 1, D)
    assert out[2].is_zero()
    f = zbj(D) * zbj(D)
    g = zj(D) * zj(D)
    out = star_eval(t, f, g)
    assert out[0] == f * g
    assert out[1] == (zj(D) * zbj(D)).scale(4)
    assert out[2] == Jet.constant(2, 1, D)
    assert time.monotonic() - start < 1.0


def test_one_star_f():
    D, N = 12, 2
    for P in reference_potentials(D).values():
        n = P.n
        t = karabegov_star(P, N)
        f = Jet.variable(0, n, D) * Jet.variable(0, n, D, "anti")
        out = star_eval(t, Jet.constant(1, n, D), f)
        assert out[0] == f
        assert all(o.is_zero() for o in out[1:])


def test_c1_matches_metric_contraction():
    D, N = 14, 2
    for name, P in reference_potentials(D).items():
        n = P.n
        t = karabegov_star(P, N)
        g_inv = inverse_metric(P.phi_minus1)
        window = D - (N + 2)
        probes = [jet_monomial(h, a, n, D)
                  for h in mi_range(n, 2) for a in mi_range(n, 2)]
        for f in probes:
            for g in probes:
                expect = Jet.zero(n, D)
                for i in range(n):
                    for j in range(n):
                        expect = expect + g_inv[i][j] * f.diff(i, "anti") * g.diff(j, "holo")
                got = t.C[1].apply(f, g)
                assert (got - expect).truncate(window - 2).is_zero(), name


def test_poisson_from_c1():
    D, N = 14, 2
    for name, P in reference_potentials(D).items():
        n = P.n
        t = karabegov_star(P, N)
        g_inv = inverse_metric(P.phi_minus1)
        window = D - (N + 2) - 2
        probes = [jet_monomial(h, a, n, D)
                  for h in mi_range(n, 2) for a in mi_range(n, 2)]
        for f in probes[:6]:
            for g in probes[:6]:
                anti = t.C[1].apply(f, g) - t.C[1].apply(g, f)
                br = poisson_bracket(f, g, g_inv)
                assert (br - anti.scale(Scalar(0, 1))).truncate(
                    window).is_zero(), name


def test_left_right_reconstruction():
    D, N = 14, 3
    P = fs_potential(D)
    t = karabegov_star(P, N)
    f = zbj(D) * zbj(D) + zj(D) * zbj(D)
    L = left_mult_operator([f], P, N)
    g = zj(D) * zj(D) + zbj(D)
    via_L = [apply_op(op, g) for op in L]
    via_t = star_eval(t, f, g)
    window = D - (N + 2) - N
    for a, b in zip(via_L, via_t):
        assert (a - b).truncate(window).is_zero()


def test_assoc_defect_zero():
    D, N = 16, 3
    for name, P in reference_potentials(D).items():
        n = P.n
        t = karabegov_star(P, N)
        window = D - (N + 2) - 2 * N
        f = jet_monomial((1,) + (0,) * (n - 1), (1,) + (0,) * (n - 1), n, D)
        g = Jet.variable(0, n, D, "anti")
        h = Jet.variable(0, n, D)
        for d in assoc_defect(t, f, g, h):
            assert d.truncate(window).is_zero(), name


def nonflat_n2_potential(D):
    """Phi = z1 zbar1 + z2 zbar2 + z1 z2 zbar1 zbar2: a non-flat n = 2
    metric, whose recursion blocks have null rows."""
    t1 = Jet.variable(0, 2, D) * Jet.variable(0, 2, D, "anti")
    t2 = Jet.variable(1, 2, D) * Jet.variable(1, 2, D, "anti")
    return FormalPotential(phi_minus1=t1 + t2 + t1 * t2)


def test_nonflat_n2_recursion():
    # the off-diagonal metric gives blocks with several j-routes to one
    # unknown; the recursion's residual check compares them through
    # D - (m + 2)
    D, N = 16, 2
    P = nonflat_n2_potential(D)
    t = karabegov_star(P, N)
    left_mult_operator([Jet.variable(1, 2, D, "anti")], P, N)
    window = D - (N + 2) - 2 * N
    z1, z2 = Jet.variable(0, 2, D), Jet.variable(1, 2, D)
    zb1, zb2 = Jet.variable(0, 2, D, "anti"), Jet.variable(1, 2, D, "anti")
    for f, g, h in ((z1 * zb2, zb1, z2), (zb1 * zb2, z1 * z2, zb2),
                    (z2 * zb2, z1 * zb1, zb1 * z2)):
        for d in assoc_defect(t, f, g, h):
            assert d.truncate(window).is_zero()


def nondiagonal_n3_potential(D):
    """Phi = z1 zbar1 + 2 z2 zbar2 + z3 zbar3 + z1 zbar1 z3 zbar3
    + (z1 zbar3 + z3 zbar1) / 4: an n = 3 metric off the diagonal."""
    z = [Jet.variable(i, 3, D) for i in range(3)]
    zb = [Jet.variable(i, 3, D, "anti") for i in range(3)]
    return FormalPotential(phi_minus1=(
        z[0] * zb[0] + (z[1] * zb[1]).scale(2) + z[2] * zb[2]
        + z[0] * zb[0] * z[2] * zb[2]
        + (z[0] * zb[2] + z[2] * zb[0]).scale(Fraction(1, 4))))


def table_sha256(t):
    text = json.dumps(star_table_to_json(t), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("build, P, N, digest", [
    pytest.param(karabegov_star, nonflat_n2_potential(16), 2,
                 "940841cbf5d37659784c330e004ef4ae7d06ced1f2b37fba54e356dc279dc785",
                 id="karabegov-nonflat-n2-2"),
    pytest.param(bt_star_from, nonflat_n2_potential(16), 2,
                 "4ea8254c94d472c71422f14859646a09f5fe1ee107bccb0888bc1286e2e373aa",
                 id="bt-nonflat-n2-2"),
    pytest.param(karabegov_star, nonflat_n2_potential(15), 3,
                 "102a0996e51fabe7ecad071701686275671812288440bc76e3d08527ad523680",
                 id="karabegov-nonflat-n2-3"),
    pytest.param(karabegov_star, nondiagonal_n3_potential(12), 2,
                 "88768b8e8148d6696324e66f0736d860dc8ddd354f6cbd683373d8322ac2dc0d",
                 id="karabegov-n3-2"),
    pytest.param(bt_star_from, nondiagonal_n3_potential(12), 2,
                 "ba07a75bb3659e0a47dc22b0e377c79076d71c02e9634de00f94e8284140442a",
                 id="bt-n3-2"),
])
def test_multi_index_block_pins(build, P, N, digest):
    # blocks with more than one j-route; no benchmark pin reaches them
    assert table_sha256(build(P, N)) == digest


@pytest.mark.parametrize("build, P, N", [
    pytest.param(bt_star_from, fs_potential(16), 4, id="bt-fs-4"),
    pytest.param(bt_star_from, flat_potential(12, n=2, weights=[1, 2]), 2,
                 id="bt-aniso-2"),
    pytest.param(gammelgaard_star, flat_potential(12, n=2, weights=[1, 2]), 2,
                 id="gammelgaard-aniso-2"),
])
def test_each_table_builds_the_metric_once(build, P, N, monkeypatch):
    """One Hessian of Phi_{-1} per table, one det g and, at n > 1, the n^2
    cofactors of g^{-1}: bt_star_from takes log det g and g^{-1} from the
    same g and det g, and gammelgaard_star hands the g^{-1} it contracts to
    the recursion it is checked against."""
    counts = dict.fromkeys(("jet_det", "hessian"), 0)
    for name in counts:
        exact = getattr(starq.jets, name)

        def counted(*args, name=name, exact=exact):
            counts[name] += 1
            return exact(*args)
        for module in (starq.jets, starq.karabegov):
            if getattr(module, name, None) is exact:
                monkeypatch.setattr(module, name, counted)
    build(P, N)
    n = P.n
    assert counts == {"jet_det": 1 + n * n * (n > 1), "hessian": 1}


def test_corrupted_inverse_metric_fails_the_block_check(monkeypatch):
    exact = starq.karabegov.inverse_metric

    def corrupted(phi):
        rows = [list(row) for row in exact(phi)]
        rows[0][1] = rows[0][1] + Jet.constant(Fraction(1, 7), phi.n,
                                               phi.max_degree)
        return tuple(map(tuple, rows))

    monkeypatch.setattr(starq.karabegov, "inverse_metric", corrupted)
    with pytest.raises(ArithmeticError, match="inconsistent block"):
        karabegov_star(nonflat_n2_potential(16), 2)


def test_degenerate_potential_raises():
    D = 10
    P = FormalPotential(phi_minus1=zj(D) * zj(D) + zbj(D) * zbj(D))
    with pytest.raises(DegenerateMetric):
        karabegov_star(P, 2)


# ---------------------------------------------------------------------------
# transform and BT product

def test_transform_flat():
    D, N = 14, 2
    t = karabegov_star(flat_potential(D), N)
    Iop = transform_from_star(t)
    lap = DiffOp(1, D, [(Jet.constant(1, 1, D), (1, 1))])
    expect = (DiffOp.identity(1, D), lap,
              lap.compose(lap).scale(Scalar(Fraction(1, 2))))
    assert ops_agree(Iop, expect)


def test_transform_i1_is_laplacian():
    # the non-flat n = 2 metric is off the diagonal, so it tells the
    # contraction g_inv[j][i] d_i dbar_j from its transpose
    N = 2
    potentials = dict(reference_potentials(14),
                      nonflat_n2=nonflat_n2_potential(12))
    for name, P in potentials.items():
        n, D = P.n, P.D
        t = karabegov_star(P, N)
        Iop = transform_from_star(t)
        assert Iop[0] == DiffOp.identity(n, D), name
        g_inv = inverse_metric(P.phi_minus1)
        window = D - (N + 2) - 4
        probes = [jet_monomial(h, a, n, D)
                  for h in mi_range(n, 2) for a in mi_range(n, 2)]
        for f in probes:
            got = apply_op(Iop[1], f)
            assert (got - laplacian(f, g_inv)).truncate(window).is_zero(), name


def test_fs_transform_on_height():
    D, N = 14, 2
    P = fs_potential(D)
    t = karabegov_star(P, N)
    Iop = transform_from_star(t)
    tt = zj(D) * zbj(D)
    f = (Jet.constant(1, 1, D) - tt) * (Jet.constant(1, 1, D) + tt).inverse()
    assert apply_op(Iop[1], f).constant_term() == Scalar(-2)


# ---------------------------------------------------------------------------
# the CP^n spectrum of the transform

def one_plus_norm(n, D):
    """The jet s = 1 + |z_1|^2 + ... + |z_n|^2."""
    s = Jet.constant(1, n, D)
    for i in range(n):
        s = s + zj(D, n, i) * zbj(D, n, i)
    return s


def cpn_potential(n, D):
    """Phi_{-1} = log s, the Fubini-Study potential of CP^n, by Jet.log."""
    return FormalPotential(phi_minus1=one_plus_norm(n, D).log())


def cpn_eigenvalue(n, l, N):
    """[nu^0 .. nu^N] of lambda_l(1/nu), lambda_l(m) = m!(m+n)! /
    ((m-l)!(m+n+l)!): with m = 1/nu, the product over j < l of
    (1 - j nu) / (1 + (n + j + 1) nu), as Fractions."""
    out = [Fraction(1)] + [Fraction(0)] * N
    for j in range(l):
        factor = [Fraction(-(n + j + 1)) ** k for k in range(N + 1)]
        factor = [x - j * y for x, y in zip(factor, [Fraction(0)] + factor)]
        out = [sum(out[i] * factor[k - i] for i in range(k + 1))
               for k in range(N + 1)]
    return out


@functools.lru_cache(maxsize=None)
def cpn_table(n, D, N):
    return karabegov_star(cpn_potential(n, D), N)


def cpn_spectrum_misses(t, n, D, N):
    """The (l, k) at which I_k of t does not map a harmonic of bidegree
    (l, l) to the nu^k coefficient of lambda_l(1/nu) times itself, through
    degree D - 2N - 4, over z1 zbar2 / s, z1^2 zbar2^2 / s^2 and z1 / s,
    s = 1 + |z|^2."""
    I = transform_from_star(t)
    inv = one_plus_norm(n, D).inverse()
    z1, zb2 = zj(D, n, 0), zbj(D, n, 1)
    probes = ((1, z1 * zb2 * inv), (2, z1 * z1 * zb2 * zb2 * inv * inv),
              (1, z1 * inv))
    lam = {l: cpn_eigenvalue(n, l, N) for l in (1, 2)}
    return [(l, k) for l, f in probes for k in range(N + 1)
            if not (apply_op(I[k], f) - f.scale(lam[l][k]))
            .truncate(D - 2 * N - 4).is_zero()]


@pytest.mark.parametrize("n, D, N, lam1, lam2", [
    pytest.param(2, 20, 4, (1, -3, 9, -27, 81), (1, -8, 44, -212, 956),
                 id="cp2-4"),
    pytest.param(3, 14, 3, (1, -4, 16, -64), (1, -10, 70, -430), id="cp3-3"),
])
def test_transform_has_the_cpn_spectrum(n, D, N, lam1, lam2):
    """On CP^n the transform acts on each harmonic of bidegree (l, l) by
    lambda_l(1/nu) (Zhang 1998), at every order the table reaches: a closed
    form that shares nothing with the recursion."""
    assert tuple(cpn_eigenvalue(n, 1, N)) == lam1
    assert tuple(cpn_eigenvalue(n, 2, N)) == lam2
    assert cpn_spectrum_misses(cpn_table(n, D, N), n, D, N) == []


def with_changed_c2(t):
    """t with the constant 1 added to the coefficient of the first term of
    C_2, and that term's derivative exponent tuples (df, dg)."""
    n, D = t.n, t.D
    _, *idx = t.C[2].terms[0]
    C2 = t.C[2] + BiDiffOp(n, D, [(Jet.constant(1, n, D), *idx)])
    return StarTable(t.C[:2] + [C2] + t.C[3:], t.convention), idx


def test_cpn_spectrum_sees_one_changed_coefficient():
    """One coefficient of C_2 changed by a constant breaks the spectrum at
    nu^2, on each probe."""
    n, D, N = 2, 20, 4
    bad, _ = with_changed_c2(cpn_table(n, D, N))
    assert cpn_spectrum_misses(bad, n, D, N) == [(1, 2), (2, 2), (1, 2)]


# ---------------------------------------------------------------------------
# I_1 and I_2 in closed form

def ricci_raised(phi):
    """R^{ab̄} = sum_ij g^{aj̄} R_{ij̄} g^{ib̄} as R[a][b], with the Ricci
    form R_{ij̄} = -d_i dbar_j log det g; g^{ij̄} is g_inv[j][i], as in
    laplacian."""
    n, D = phi.n, phi.max_degree
    g_inv = inverse_metric(phi)
    log_det = jet_det(hessian(phi)).log()
    ric = [[log_det.diff(i, "holo").diff(j, "anti").scale(-1)
            for j in range(n)] for i in range(n)]
    return [[sum((g_inv[j][a] * ric[i][j] * g_inv[b][i]
                  for i in range(n) for j in range(n)), Jet.zero(n, D))
             for b in range(n)] for a in range(n)]


def closed_form_misses(t, phi):
    """The (k, holo, anti) at which I_k of the N = 2 table t differs on the
    monomial z^holo zbar^anti, |holo|, |anti| <= 2, from I_1 = Delta or
    I_2 = Delta^2 / 2 - R^{ab̄} d_a dbar_b / 2, through degree D - 2N - 4.
    The closed forms hold when Phi_k = 0 for k >= 0, as in every potential
    here; they read only the metric, not the recursion."""
    n, D, N = t.n, t.D, t.N
    I = transform_from_star(t)
    g_inv = inverse_metric(phi)
    R = ricci_raised(phi)
    half = Scalar(Fraction(1, 2))
    misses = []
    for h in mi_range(n, 2):
        for a in mi_range(n, 2):
            f = jet_monomial(h, a, n, D)
            lap = laplacian(f, g_inv)
            ricci = Jet.zero(n, D)
            for i in range(n):
                for j in range(n):
                    ricci = ricci + R[i][j] * f.diff(i, "holo").diff(j, "anti")
            expect = (lap, (laplacian(lap, g_inv) - ricci).scale(half))
            misses += [(k, h, a) for k in (1, 2)
                       if not (apply_op(I[k], f) - expect[k - 1])
                       .truncate(D - 2 * N - 4).is_zero()]
    return misses


CLOSED_FORM_POTENTIALS = {"fs": lambda: fs_potential(16),
                          "dense": lambda: dense_potential(16),
                          "nonflat-n2": lambda: nonflat_n2_potential(16)}


@pytest.mark.parametrize("name", CLOSED_FORM_POTENTIALS)
def test_transform_has_the_first_two_closed_forms(name):
    """I_1 = Delta and I_2 = Delta^2/2 - R^{ab̄} d_a dbar_b / 2 on a radial,
    a non-radial and an off-diagonal n = 2 metric."""
    P = CLOSED_FORM_POTENTIALS[name]()
    assert closed_form_misses(karabegov_star(P, 2), P.phi_minus1) == []


@pytest.mark.parametrize("name", CLOSED_FORM_POTENTIALS)
def test_closed_forms_see_one_changed_coefficient(name):
    """The constant 1 added to the coefficient of the term d^fa_zbar f
    d^gh_z g of C_2 adds d^gh_z d^fa_zbar to I_2: the check fails at
    k = 2 on each monomial that operator does not kill, and nowhere else."""
    P = CLOSED_FORM_POTENTIALS[name]()
    bad, (df, dg) = with_changed_c2(karabegov_star(P, 2))
    n = P.n
    fa, gh = df[n:], dg[:n]
    expect = [(2, h, a) for h in mi_range(n, 2) for a in mi_range(n, 2)
              if all(map(int.__ge__, h, gh)) and all(map(int.__ge__, a, fa))]
    assert expect
    assert closed_form_misses(bad, P.phi_minus1) == expect


def test_bt_star_flat():
    D, N = 16, 2
    P = flat_potential(D)
    bt = bt_star_from(P, N)
    assert bt.convention == "wick"
    out = star_eval(bt, zj(D), zbj(D))
    assert out[0] == zj(D) * zbj(D)
    assert out[1] == Jet.constant(-1, 1, D)
    one = Jet.constant(1, 1, D)
    f = zj(D) * zbj(D)
    out = star_eval(bt, one, f)
    assert out[0] == f and out[1].is_zero()


def test_bt_c1_identity():
    """C_1 of the Berezin-Toeplitz table is -g^{ij} d_i f dbar_j g, and its
    antisymmetrization is -i times the Poisson bracket."""
    D, N = 16, 2
    for name, P in reference_potentials(D).items():
        n = P.n
        bt = bt_star_from(P, N)
        assert bt.convention == "wick", name
        g_inv = inverse_metric(P.phi_minus1)
        window = P.D - (3 * N + 2) - 2
        probes = [jet_monomial(h, a, n, D)
                  for h in mi_range(n, 2) for a in mi_range(n, 2)]
        for f in probes[:6]:
            for g in probes[:6]:
                expect = Jet.zero(n, D)
                for i in range(n):
                    for j in range(n):
                        expect = expect - g_inv[i][j] * f.diff(i, "holo") * g.diff(j, "anti")
                got = bt.C[1].apply(f, g)
                assert (got - expect).truncate(window).is_zero(), name
                anti = got - bt.C[1].apply(g, f)
                br = poisson_bracket(f, g, g_inv)
                assert (br - anti.scale(Scalar(0, 1))).truncate(
                    window).is_zero(), name


@pytest.mark.parametrize("P, N", [
    pytest.param(fs_potential(12), 2, id="fs-2"),
    pytest.param(fs_potential(15), 3, id="fs-3"),
    pytest.param(fs_potential(18), 4, id="fs-4"),
    pytest.param(flat_potential(15, n=2, weights=[1, 2]), 3, id="aniso-3"),
    pytest.param(flat_potential(15), 3, id="flat-3"),
    pytest.param(dense_potential(12), 2, id="dense-2"),
    pytest.param(nonflat_n2_potential(16), 2, id="nonflat-n2-2"),
    pytest.param(dense_potential(15), 3, id="dense-3"),
    pytest.param(nonflat_n2_potential(17), 3, id="nonflat-n2-3"),
])
def test_bt_direct_route_matches_conjugation(P, N):
    assert not P.phi
    bt = bt_star_from(P, N)
    assert bt.C == conjugation_route(P, N)
    assert bt.convention == "wick"


# ---------------------------------------------------------------------------
# commutation of the table's own operators

def _multipliers(P, N):
    """w[j][l] = dPhi_{j-1}/dzbar_l for j <= N: the nu^j part of nu R_l
    besides the d/dzbar_l of nu^1."""
    return [[phi.diff(l, "anti") for l in range(P.n)]
            for phi in [P.phi_minus1] + [P.phi_k(j) for j in range(N)]]


@pytest.mark.parametrize("P, N", [
    pytest.param(flat_potential(14), 3, id="flat-3"),
    pytest.param(fs_potential(16), 4, id="fs-4"),
    pytest.param(flat_potential(14, n=2, weights=[1, 2]), 3, id="aniso-3"),
    pytest.param(dense_potential(12), 3, id="dense-3"),
    pytest.param(nonflat_n2_potential(12), 2, id="nonflat-n2-2"),
    pytest.param(nondiagonal_n3_potential(10), 2, id="n3-2"),
])
def test_table_operators_commute_with_right_multiplication(P, N):
    """Every A(f, .) = sum nu^k C_k(f, .) commutes with every nu R_l: the
    nu^m part of the commutator vanishes through D - (m + 2), the window
    the recursion checks at order m, though the lower orders' part alone
    does not."""
    A = _anti_wick_ops(P, N, inverse_metric(P.phi_minus1))
    w = _multipliers(P, N)
    for m in range(1, N + 1):
        for l in range(P.n):
            assert not _commutator_sum(A[:m], w, m, l, P.D).is_zero()
            for tm in _commutator_sum(A[:m + 1], w, m, l, P.D).terms:
                assert tm[0].drop_above(P.D - (m + 2)).is_zero(), (m, l)


def test_corrupted_table_operator_fails_commutation():
    P, N = fs_potential(14), 3
    A = _anti_wick_ops(P, N, inverse_metric(P.phi_minus1))
    w = _multipliers(P, N)
    c, *idx = A[2].terms[0]
    A[2] = A[2] + BiDiffOp(P.n, P.D, [(Jet.constant(1, P.n, P.D), *idx)])
    assert any(not tm[0].drop_above(P.D - 4).is_zero()
               for tm in _commutator_sum(A[:3], w, 2, 0, P.D).terms)


def test_recursion_checks_the_degree_zero_window(monkeypatch):
    """At N = 1 and D = 3, the smallest budget the D >= 3N guard admits,
    order 1 is checked through degree 0: left_mult_operator returns the
    checked operator, and a doubled g^{-1} raises."""
    P = fs_potential(3)
    L = left_mult_operator([zbj(3)], P, 1)
    assert L[1] == DiffOp.deriv(1, 3, (1, 0))
    exact = starq.karabegov.inverse_metric
    monkeypatch.setattr(starq.karabegov, "inverse_metric", lambda phi: tuple(
        tuple(x.scale(2) for x in row) for row in exact(phi)))
    with pytest.raises(ArithmeticError, match="inconsistent block"):
        left_mult_operator([zbj(3)], P, 1)


def _shape_ops(n, D):
    """BiDiffOps of each term shape, with non-constant coefficients and
    second derivatives, so every binomial above 1 is exercised."""
    z = mi_zero(n)
    e0, e1 = unit_mi(n, 0), unit_mi(n, n - 1)
    two, both = tuple(2 * x for x in e0), tuple(a + b for a, b in zip(e0, e1))
    zs = [Jet.variable(i, n, D) for i in range(n)]
    zbs = [Jet.variable(i, n, D, "anti") for i in range(n)]
    c1 = (Jet.constant(1, n, D) + zs[0] * zbs[-1]
          + (zs[-1] * zbs[0]).scale(Scalar(0, 1)))
    c2 = zs[0] * zs[-1] + (zbs[0] * zbs[0]).scale(Fraction(1, 3))
    return {
        "anti-wick": [(c1, z + e0, two + z), (c2, z + both, e1 + z)],
        "wick": [(c1, e0 + z, z + two), (c2, both + z, z + e1)],
        "mixed": [(c1, e0 + e1, two + both), (c2, z + z, both + two)],
    }


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("shape", ["anti-wick", "wick", "mixed"])
def test_commutator_matches_generic_composition(n, shape):
    """_commutator(op, w, D, l) is [op, r](f, g) = op(f, r g) - r(op(f, g)),
    composed by the generic Leibniz rules, with r the multiplication by w,
    plus d/dzbar_l when l is given."""
    D = 8
    op = BiDiffOp(n, D, _shape_ops(n, D)[shape])
    zs = [Jet.variable(i, n, D) for i in range(n)]
    zbs = [Jet.variable(i, n, D, "anti") for i in range(n)]
    w = (zs[0] * zbs[-1] * zs[-1] * zbs[0] + zs[0] * zs[0] * zbs[-1]
         + (zbs[0] * zbs[0] * zs[-1]).scale(Scalar(0, 1))
         + zs[-1] * zs[-1] * zs[-1])
    ident = DiffOp.identity(n, D)
    for l in (None, *range(n)):
        r = mult_op(w)
        if l is not None:
            r = r + DiffOp.deriv(n, D, mi_zero(n) + unit_mi(n, l))
        expect = op.precompose(ident, r) - op.postcompose(r)
        assert not expect.is_zero()
        assert _commutator(op, w, D, l) == expect, l


def left_mult_sha256(L):
    text = json.dumps([[[jet_to_json(c), list(d[:op.n]), list(d[op.n:])]
                        for c, d in op.terms] for op in L],
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("P, digests", [
    pytest.param(fs_potential(12), ("6737be9754277b4a", "5ddb893c7365e8b8",
                                    "dfe7ab98131361d2", "24873c795cd61ace"),
                 id="fs"),
    pytest.param(flat_potential(12, n=2, weights=[1, 2]),
                 ("d2fe2341f5300f9a", "74e022977cfaa0f0", "7071eb972cec7a01",
                  "04e1ef48a629927a"), id="aniso"),
    pytest.param(dense_potential(12), ("3db5dba0d002fc45", "d0e53aed3efbec3d",
                                       "6423254a03e4867a", "ea6a1054efcbb028"),
                 id="dense"),
    pytest.param(nonflat_n2_potential(12),
                 ("753e7dfc5705bf90", "858601418fc1e218", "429423cf02d33aeb",
                  "a0c166a77af9c259"), id="nonflat-n2"),
    pytest.param(nondiagonal_n3_potential(12),
                 ("88768b8e8148d669", "ba07a75bb3659e0a", "5ef8cfd68ddf0345",
                  "087c9a1605759a40"), id="n3"),
    # n = 4: jets of every dimension share one exponent-key path
    pytest.param(flat_potential(12, n=4, weights=[1, 2, 3, 4]),
                 ("d56b4ab96573ad5a", "c6b252262cf4e10a", "0a9456c4c80977f7",
                  "ea22e2324b875b19"), id="flat-n4"),
])
def test_tables_build_without_generic_composition(P, digests, monkeypatch):
    """The recursion reads every commutator in closed form: with
    BiDiffOp.precompose, BiDiffOp.postcompose and DiffOp.compose refusing,
    karabegov_star, bt_star_from, gammelgaard_star and left_mult_operator
    still build their N = 2 tables, with the first 16 hex digits of their
    sha256 pinned."""
    def refuse(*args):
        raise AssertionError("generic operator composition")

    monkeypatch.setattr(BiDiffOp, "precompose", refuse)
    monkeypatch.setattr(BiDiffOp, "postcompose", refuse)
    monkeypatch.setattr(DiffOp, "compose", refuse)
    n, D = P.n, P.D
    zb0, zb1 = Jet.variable(0, n, D, "anti"), Jet.variable(n - 1, n, D, "anti")
    g = zb0 * zb1 + Jet.variable(0, n, D) * zb1
    got = [table_sha256(build(P, 2))
           for build in (karabegov_star, bt_star_from, gammelgaard_star)]
    got.append(left_mult_sha256(left_mult_operator([g], P, 2)))
    assert tuple(h[:16] for h in got) == digests
