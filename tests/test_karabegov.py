"""Recursion-built star products: flat oracles, commutation, transforms."""

import hashlib
import json
from fractions import Fraction

import pytest

from starq.jets import (
    DegenerateMetric, I, Jet, MetricJets, Scalar, jet_det,
    metric_from_potential, mi_range, mi_zero,
)
import starq.karabegov
from starq.formal import (
    BiDiffOp, DiffOp, NuDiffOp, assoc_defect, conjugate_star,
    star_eval, star_table_to_json, transform_from_star,
)
from starq.karabegov import (
    FormalPotential, _anti_wick_ops, _verify_commutation, bt_star_from,
    flat_potential, fs_potential, karabegov_star, left_mult_operator,
    reference_potentials,
)

from paper_checks import laplacian, ops_agree, poisson_bracket


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
    assert L.orders[0] == DiffOp.mult(zbj(D))
    assert L.orders[1] == DiffOp.deriv(1, D, (1,), (0,))
    assert L.orders[2].is_zero()


def test_left_mult_holomorphic_is_mult():
    D, N = 12, 3
    for P in (flat_potential(D), fs_potential(D)):
        a = zj(D) * zj(D) + zj(D)
        L = left_mult_operator([a], P, N)
        assert L.orders[0] == DiffOp.mult(a)
        for k in range(1, N + 1):
            assert L.orders[k].is_zero()


def test_left_mult_closed_form():
    # L_{nu dPhi/dz} = nu (dPhi/dz + d/dz), tested in non-negative grading
    D, N = 14, 3
    for P in (flat_potential(D), fs_potential(D)):
        w = P.phi_minus1.diff(0, "holo")
        L = left_mult_operator([w], P, N)
        expect = NuDiffOp(1, D, N, [DiffOp.mult(w),
                                    DiffOp.deriv(1, D, (1,), (0,))])
        assert ops_agree(L, expect, up_to=D - 2 * N - 2)


def test_left_mult_structurally_holomorphic():
    D, N = 14, 3
    P = fs_potential(D)
    L = left_mult_operator([zbj(D) * zbj(D)], P, N)
    for op in L.orders:
        for _, h, a in op.terms:
            assert sum(a) == 0 or op is L.orders[0]


@pytest.mark.parametrize("name, D, N", [("fs", 24, 6), ("dense", 12, 3)])
def test_left_mult_keeps_each_order_to_its_window(name, D, N):
    """Order m of L_g is reliable through degree D - (m + 2), and the
    recursion keeps no coefficient term above it."""
    P = fs_potential(D) if name == "fs" else dense_potential(D)
    L = left_mult_operator([zbj(D) * zbj(D) + zj(D) * zbj(D)], P, N)
    for m, op in enumerate(L.orders[1:], 1):
        assert not op.is_zero()
        for c, _, _ in op.terms:
            assert c.drop_above(D - (m + 2)) == c, (m, c)


# ---------------------------------------------------------------------------
# star tables

def test_flat_star_exact_examples():
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
        m = metric_from_potential(P.phi_minus1)
        window = D - (N + 2)
        probes = [Jet.monomial(h, a, n, D)
                  for h in mi_range(n, 2) for a in mi_range(n, 2)]
        for f in probes:
            for g in probes:
                expect = Jet.zero(n, D)
                for i in range(n):
                    for j in range(n):
                        expect = expect + m.g_inv[i][j] * f.diff(i, "anti") * g.diff(j, "holo")
                got = t.C[1].apply(f, g)
                assert (got - expect).truncate(window - 2).is_zero(), name


def test_poisson_from_c1():
    D, N = 14, 2
    for name, P in reference_potentials(D).items():
        n = P.n
        t = karabegov_star(P, N)
        m = metric_from_potential(P.phi_minus1)
        window = D - (N + 2) - 2
        probes = [Jet.monomial(h, a, n, D)
                  for h in mi_range(n, 2) for a in mi_range(n, 2)]
        for f in probes[:6]:
            for g in probes[:6]:
                anti = t.C[1].apply(f, g) - t.C[1].apply(g, f)
                br = poisson_bracket(f, g, m)
                assert (br - anti.scale(I)).truncate(window).is_zero(), name


def test_left_right_reconstruction():
    D, N = 14, 3
    P = fs_potential(D)
    t = karabegov_star(P, N)
    f = zbj(D) * zbj(D) + zj(D) * zbj(D)
    L = left_mult_operator([f], P, N)
    g = zj(D) * zj(D) + zbj(D)
    via_L = L.apply([g])
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
        f = Jet.monomial((1,) + (0,) * (n - 1), (1,) + (0,) * (n - 1), n, D)
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
    # unknown; the null-row check compares them through D - (m + 2)
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


def test_corrupted_inverse_metric_fails_the_block_check(monkeypatch):
    exact = starq.karabegov.metric_from_potential

    def corrupted(phi):
        m = exact(phi)
        rows = [list(row) for row in m.g_inv]
        rows[0][1] = rows[0][1] + Jet.constant(Fraction(1, 7), phi.n,
                                               phi.max_degree)
        return MetricJets(g=m.g, g_inv=tuple(map(tuple, rows)))

    monkeypatch.setattr(starq.karabegov, "metric_from_potential", corrupted)
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
    lap = DiffOp(1, D, [(Jet.constant(1, 1, D), (1,), (1,))])
    expect = NuDiffOp(1, D, N, [DiffOp.identity(1, D), lap,
                                lap.compose(lap).scale(Scalar(Fraction(1, 2)))])
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
        m = metric_from_potential(P.phi_minus1)
        window = D - (N + 2) - 4
        probes = [Jet.monomial(h, a, n, D)
                  for h in mi_range(n, 2) for a in mi_range(n, 2)]
        for f in probes:
            got = Iop.orders[1].apply(f)
            assert (got - laplacian(f, m)).truncate(window).is_zero(), name


def test_fs_transform_on_height():
    D, N = 14, 2
    P = fs_potential(D)
    t = karabegov_star(P, N)
    Iop = transform_from_star(t)
    tt = zj(D) * zbj(D)
    f = (Jet.constant(1, 1, D) - tt) * (Jet.constant(1, 1, D) + tt).inverse()
    assert Iop.orders[1].apply(f).constant_term() == Scalar(-2)


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
    D, N = 16, 2
    for name, P in reference_potentials(D).items():
        n = P.n
        bt = bt_star_from(P, N)
        assert bt.convention == "wick", name
        m = metric_from_potential(P.phi_minus1)
        window = P.D - (3 * N + 2) - 2
        probes = [Jet.monomial(h, a, n, D)
                  for h in mi_range(n, 2) for a in mi_range(n, 2)]
        for f in probes[:6]:
            for g in probes[:6]:
                expect = Jet.zero(n, D)
                for i in range(n):
                    for j in range(n):
                        expect = expect - m.g_inv[i][j] * f.diff(i, "holo") * g.diff(j, "anti")
                got = bt.C[1].apply(f, g)
                assert (got - expect).truncate(window).is_zero(), name


def dense_potential(D):
    """Real non-radial n = 1 potential z zbar + sum c_ab z^a zbar^b over
    3 <= a + b <= 4, with fixed coefficients of modulus 1/4 and 1/4 sqrt 2."""
    terms = {((1,), (1,)): Scalar(1)}
    for a in range(5):
        for b in range(a, 5):
            if 3 <= a + b <= 4:
                sign = (-1) ** (a + 2 * b)
                im = Fraction(0) if a == b else Fraction(-sign, 4)
                terms[((a,), (b,))] = Scalar(Fraction(sign, 4), im)
                terms[((b,), (a,))] = Scalar(Fraction(sign, 4), -im)
    return FormalPotential(phi_minus1=Jet(1, D, terms))


def berezin_potential(P, N):
    """Karabegov potential of the Berezin product, through the orders an
    N-table reads: Phi_{-1}/nu + nu b_1 + nu^2 b_2 with log rho_nu =
    sum nu^k b_k for the Bergman density rho_nu = 1 + nu a_1 + nu^2 a_2 + ...
    b_1 = a_1 = R/2, R = -Delta log det g.  b_k first reaches C_{k+2}, so
    b_2 enters only from N = 4, and then as Lu's n = 1 value
    b_2 = a_2 - a_1^2/2 = Delta R / 3 - R^2 / 8."""
    m = metric_from_potential(P.phi_minus1)
    R = -laplacian(jet_det(m.g).log(), m)
    phi = [Jet.zero(P.n, P.D), R.scale(Fraction(1, 2))]
    if N >= 4:
        assert P.n == 1, "b_2 is known here for n = 1 only"
        phi.append(laplacian(R, m).scale(Fraction(1, 3))
                   - (R * R).scale(Fraction(1, 8)))
    return FormalPotential(phi_minus1=P.phi_minus1, phi=phi)


def conjugation_route(P, N):
    """The BT table f * g = I^{-1}(I f *_B I g), by conjugating the Berezin
    product *_B with its transform I, cut as bt_star_from cuts."""
    t = karabegov_star(berezin_potential(P, N), N)
    cut = P.D - (3 * N + 2)
    return [BiDiffOp(P.n, P.D, [(tm[0].drop_above(cut),) + tm[1:]
                                for tm in op.terms])
            for op in conjugate_star(t, transform_from_star(t)).C]


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

@pytest.mark.parametrize("P, N", [
    pytest.param(flat_potential(14), 3, id="flat-3"),
    pytest.param(fs_potential(16), 4, id="fs-4"),
    pytest.param(flat_potential(14, n=2, weights=[1, 2]), 3, id="aniso-3"),
    pytest.param(dense_potential(12), 3, id="dense-3"),
    pytest.param(nonflat_n2_potential(12), 2, id="nonflat-n2-2"),
    pytest.param(nondiagonal_n3_potential(10), 2, id="n3-2"),
])
def test_table_operators_commute_with_right_multiplication(P, N):
    """Every A(f, .) = sum nu^k C_k(f, .) commutes with every nu R_l, on
    the window D - (2N + 2) that _verify_commutation reads."""
    assert P.D - (2 * N + 2) >= 2
    _verify_commutation(*_anti_wick_ops(P, N))


def test_corrupted_table_operator_fails_commutation():
    P, N = fs_potential(14), 3
    A, rho = _anti_wick_ops(P, N)
    c, *idx = A[2].terms[0]
    A[2] = A[2] + BiDiffOp(P.n, P.D, [(Jet.constant(1, P.n, P.D), *idx)])
    with pytest.raises(ArithmeticError, match="fails commutation"):
        _verify_commutation(A, rho)
