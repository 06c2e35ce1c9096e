"""Recursion-built star products: flat oracles, commutation, transforms."""

import pytest
from fractions import Fraction

from starq.jets import (
    I, Jet, Scalar, laplacian, metric_from_potential, mi_range, mi_zero,
    poisson_bracket,
)
from starq.formal import (
    BiDiffOp, DiffOp, NuDiffOp, assoc_defect, ops_agree, star_eval,
    transform_from_star,
)
from starq.karabegov import (
    FormalPotential, bt_star_from, flat_potential,
    fs_potential, karabegov_star, left_mult_operator, reference_potentials,
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
        assert ops_agree(L, expect, probe_degree=3, up_to=D - 2 * N - 2)


def test_left_mult_structurally_holomorphic():
    D, N = 14, 3
    P = fs_potential(D)
    L = left_mult_operator([zbj(D) * zbj(D)], P, N)
    for op in L.orders:
        for _, h, a in op.terms:
            assert sum(a) == 0 or op is L.orders[0]


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
    L = left_mult_operator([f], P, N, verify=False)
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


# ---------------------------------------------------------------------------
# transform and BT product

def test_transform_flat():
    D, N = 14, 2
    t = karabegov_star(flat_potential(D), N)
    Iop = transform_from_star(t)
    lap = DiffOp(1, D, [(Jet.constant(1, 1, D), (1,), (1,))])
    expect = NuDiffOp(1, D, N, [DiffOp.identity(1, D), lap,
                                lap.compose(lap).scale(Scalar(Fraction(1, 2)))])
    assert ops_agree(Iop, expect, probe_degree=3)


def test_transform_i1_is_laplacian():
    D, N = 14, 2
    for name, P in reference_potentials(D).items():
        n = P.n
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
