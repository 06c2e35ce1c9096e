"""Formal operator algebra: composition, polarization, transforms, duals."""

from fractions import Fraction

import pytest

from starq.jets import Jet, Scalar
from starq.formal import (
    BiDiffOp, DiffOp, OrderViolation, StarTable, assoc_defect,
    conjugate_star, detect_convention, invert_transform, series_compose,
    star_eval, tables_agree, transform_from_star,
)
from starq.karabegov import flat_potential, fs_potential, karabegov_star

from paper_checks import (
    apply_op, dual_star, jet_monomial, mult_op, opposite_star, ops_agree,
    polarize,
)


def flat_table(N, D, n=1):
    """Anti-Wick table of the flat potential: C_k = (1/k!) d^k_zbar x d^k_z."""
    C = [BiDiffOp.pointwise(n, D)]
    for k in range(1, N + 1):
        terms = []
        if n == 1:
            terms.append((Jet.constant(Scalar(Fraction(1, _fact(k))), n, D),
                          (0, k), (k, 0)))
        else:
            raise NotImplementedError
        C.append(BiDiffOp(n, D, terms))
    return StarTable(C=C, convention="karabegov_anti_wick", label="flat")


def _fact(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def flat_laplacian_op(D):
    return DiffOp(1, D, [(Jet.constant(1, 1, D), (1, 1))])


def zj(D=10):
    return Jet.variable(0, 1, D)


def zbj(D=10):
    return Jet.variable(0, 1, D, "anti")


# ---------------------------------------------------------------------------
# DiffOp basics and nu-series of DiffOps

def test_op_apply_identity_and_deriv():
    D = 8
    f = zj(D) * zj(D) * zbj(D)
    assert apply_op(DiffOp.identity(1, D), f) == f
    nudz = (DiffOp.zero(1, D), DiffOp.deriv(1, D, (1, 0)),
            DiffOp.zero(1, D))
    out = [apply_op(op, zj(D) * zj(D)) for op in nudz]
    assert out[0].is_zero()
    assert out[1] == zj(D).scale(2)


def test_op_apply_exp_transform():
    D = 10
    lap = flat_laplacian_op(D)
    expI = (DiffOp.identity(1, D), lap,
            lap.compose(lap).scale(Scalar(Fraction(1, 2))))
    f = jet_monomial((2,), (2,), 1, D)
    out = [apply_op(op, f) for op in expI]
    assert out[0] == f
    assert out[1] == jet_monomial((1,), (1,), 1, D, Scalar(4))
    assert out[2] == Jet.constant(2, 1, D)


def test_op_compose_leibniz():
    D = 8
    dz = DiffOp.deriv(1, D, (1, 0))
    mz = mult_op(zj(D))
    comp = dz.compose(mz)
    # d_z (z f) = z d_z f + f
    expect = DiffOp(1, D, [(zj(D), (1, 0)), (Jet.constant(1, 1, D), (0, 0))])
    assert comp == expect
    mzb = mult_op(zbj(D))
    comm = dz.compose(mzb) - mzb.compose(dz)
    assert comm.is_zero()


def test_term_sums_keep_their_class():
    """DiffOp and BiDiffOp share one term algebra, but an operator of one
    class never equals one of the other, and arithmetic keeps the class."""
    D = 4
    assert DiffOp.zero(1, D) != BiDiffOp.zero(1, D)
    assert BiDiffOp(1, D) != DiffOp(1, D)
    for op in (DiffOp.deriv(1, D, (1, 0)), BiDiffOp.pointwise(1, D)):
        cls = type(op)
        outs = [cls.zero(1, D), op + op, -op, op - op, op.scale(2)]
        assert all(type(out) is cls for out in outs)
        assert outs[0].is_zero() and outs[3].is_zero()
        assert outs[1] == outs[4] and outs[2] + op == outs[0]


def test_op_compose_nu_graded():
    D = 8
    zero = DiffOp.zero(1, D)
    A = (DiffOp.identity(1, D), flat_laplacian_op(D), zero)
    ident = (DiffOp.identity(1, D), zero, zero)
    assert series_compose(A, ident) == A
    # the nu^2 part of A o A is L o L; nu^3 and above are cut
    assert series_compose(A, A)[2] == A[1].compose(A[1])


# ---------------------------------------------------------------------------
# star tables

def test_star_eval_flat_examples():
    D = 10
    t = flat_table(2, D)
    one = Jet.constant(1, 1, D)
    f = zj(D) * zbj(D) + zj(D)
    out = star_eval(t, one, f)
    assert out[0] == f and out[1].is_zero() and out[2].is_zero()
    out = star_eval(t, zbj(D), zj(D))
    assert out[0] == zj(D) * zbj(D)
    assert out[1] == one
    assert out[2].is_zero()
    out = star_eval(t, zj(D), zbj(D))
    assert out[0] == zj(D) * zbj(D)
    assert out[1].is_zero() and out[2].is_zero()


def test_assoc_defect_flat_zero():
    D = 12
    t = flat_table(2, D)
    f, g, h = zbj(D), zj(D), zbj(D)
    defect = assoc_defect(t, f, g, h)
    assert all(d.is_zero() for d in defect)


def test_assoc_defect_detects_corruption():
    D = 12
    t = flat_table(2, D)
    bad_c2 = BiDiffOp(1, D, [(Jet.constant(1, 1, D), (0, 2), (2, 0))])
    bad = StarTable(C=[t.C[0], t.C[1], bad_c2],
                    convention="karabegov_anti_wick")
    f = zbj(D) * zbj(D)
    g = zj(D) * zj(D)
    h = zj(D)
    defect = assoc_defect(bad, f, g, h)
    assert not all(d.is_zero() for d in defect)


# ---------------------------------------------------------------------------
# polarization / transform extraction

def test_polarize_examples():
    D = 8
    lap = flat_laplacian_op(D)
    C1 = polarize(lap, 1)
    assert C1 == BiDiffOp(1, D, [(Jet.constant(1, 1, D), (0, 1), (1, 0))])
    ident = DiffOp.identity(1, D)
    assert polarize(ident, 0) == BiDiffOp.pointwise(1, D)
    half_lap2 = lap.compose(lap).scale(Scalar(Fraction(1, 2)))
    C2 = polarize(half_lap2, 2)
    assert C2 == BiDiffOp(1, D, [(Jet.constant(Scalar(Fraction(1, 2)), 1, D),
                                  (0, 2), (2, 0))])
    with pytest.raises(OrderViolation):
        polarize(half_lap2, 1)


def test_transform_from_star_flat():
    D = 12
    t = flat_table(2, D)
    Iop = transform_from_star(t)
    lap = flat_laplacian_op(D)
    expect = (DiffOp.identity(1, D), lap,
              lap.compose(lap).scale(Scalar(Fraction(1, 2))))
    assert ops_agree(Iop, expect)


def test_transform_rejects_order_violation():
    D = 12
    # a C_1 term outside the anti-Wick (1,1) shape: (f_dz + f_dzbar,
    # g_dz + g_dzbar) of second order in g, d_z on f, d_zbar on g, third
    # order in g
    for orders in [((0, 1), (2, 0)), ((1, 1), (1, 0)),
                   ((0, 1), (1, 1)), ((0, 1), (3, 0))]:
        # the table refuses it when it is built, before any transform
        bad_c1 = BiDiffOp(1, D, [(Jet.constant(1, 1, D),) + orders])
        with pytest.raises(OrderViolation):
            StarTable(C=[BiDiffOp.pointwise(1, D), bad_c1],
                      convention="karabegov_anti_wick")


def test_polarize_roundtrip():
    tables = [flat_table(3, 12), karabegov_star(fs_potential(18), 4),
              karabegov_star(flat_potential(15, n=2, weights=[1, 2]), 3)]
    for t in tables:
        Iop = transform_from_star(t)
        for k in range(1, t.N + 1):
            assert polarize(Iop[k], k) == t.C[k]


def test_transform_and_graph_check_apply_no_operator(monkeypatch):
    """The transform and the graph cross-check compare operator terms; they
    apply no operator to monomial probes (the library builds no monomial
    jet: jet_monomial lives in tests/paper_checks.py)."""
    from starq.graphs import gammelgaard_star

    def forbidden(*args, **kwargs):
        raise AssertionError("probe evaluation")

    P = flat_potential(14, n=2, weights=[1, 2])
    t = karabegov_star(P, 2)
    monkeypatch.setattr(BiDiffOp, "apply", forbidden)
    assert polarize(transform_from_star(t)[2], 2) == t.C[2]
    assert gammelgaard_star(P, 2).C == t.C


def test_invert_transform():
    D = 12
    N = 3
    zero = DiffOp.zero(1, D)
    ident = (DiffOp.identity(1, D),) + (zero,) * N
    assert invert_transform(ident) == ident
    lap = flat_laplacian_op(D)
    Iop = (DiffOp.identity(1, D), lap) + (zero,) * (N - 1)
    Jop = invert_transform(Iop)
    assert ops_agree(series_compose(Iop, Jop), ident)
    # Neumann series: id - nu L + nu^2 L^2 - nu^3 L^3
    assert Jop[1] == lap.scale(Scalar(-1))
    assert Jop[2] == lap.compose(lap)


def test_ops_agree_compares_terms():
    """A third-order term counts, though it kills every monomial of degree
    at most 2; a coefficient above the window does not."""
    D, N = 12, 2
    lap = flat_laplacian_op(D)
    ident, zero = DiffOp.identity(1, D), DiffOp.zero(1, D)
    Iop = (ident, lap, zero)
    third = DiffOp.deriv(1, D, (3, 0))
    assert ops_agree(Iop, Iop)
    assert not ops_agree((ident, lap + third, zero), Iop)
    high = mult_op(jet_monomial((D - N + 1,), (0,), 1, D))
    assert ops_agree((ident, lap + high, zero), Iop)
    assert not ops_agree(Iop, (DiffOp.identity(1, D + 1),)
                         + (DiffOp.zero(1, D + 1),) * N)


def test_tables_agree_compares_terms():
    """The flat table with its only C_3 term, dbar^3 f d^3 g, doubled: no
    pair of probes of degree 2 sees it, and the term comparison does."""
    D = 14
    t = karabegov_star(flat_potential(D), 3)
    (c, *shape), = t.C[3].terms
    assert shape == [(0, 3), (3, 0)]
    doubled = StarTable(C=t.C[:3] + [BiDiffOp(1, D, [(c.scale(2), *shape)])],
                        convention=t.convention)
    assert tables_agree(t, t)
    assert not tables_agree(doubled, t)
    assert not tables_agree(t, karabegov_star(flat_potential(D + 1), 3))


# ---------------------------------------------------------------------------
# conjugation / opposite / dual

def test_conjugate_identity_and_roundtrip():
    D = 14
    t = flat_table(2, D)
    zero = DiffOp.zero(1, D)
    ident = (DiffOp.identity(1, D), zero, zero)
    assert tables_agree(conjugate_star(t, ident), t)
    lap = flat_laplacian_op(D)
    B = (DiffOp.identity(1, D), lap, zero)
    t2 = conjugate_star(t, B)
    t3 = conjugate_star(t2, invert_transform(B))
    assert tables_agree(t3, t)


def test_conjugate_preserves_assoc():
    D = 14
    t = flat_table(2, D)
    lap = flat_laplacian_op(D)
    B = (DiffOp.identity(1, D), lap, DiffOp.zero(1, D))
    t2 = conjugate_star(t, B)
    f, g, h = zbj(D) * zj(D), zj(D), zbj(D)
    defect = assoc_defect(t2, f, g, h)
    window = D - 2 * t.N - 2
    assert all(d.truncate(window).is_zero() for d in defect)


def test_conjugate_precomposes_each_triple_once(monkeypatch):
    D, N = 14, 4
    t = flat_table(N, D)
    lap = flat_laplacian_op(D)
    orders = [DiffOp.identity(1, D)]
    for k in range(1, N + 1):
        orders.append(orders[-1].compose(lap).scale(Fraction(1, k)))
    B = tuple(orders)
    pre, post = [], []
    precompose, postcompose = BiDiffOp.precompose, BiDiffOp.postcompose

    def counted_pre(self, A1, A2):
        pre.append((id(self), id(A1), id(A2)))
        return precompose(self, A1, A2)

    def counted_post(self, P):
        post.append(P)
        return postcompose(self, P)

    monkeypatch.setattr(BiDiffOp, "precompose", counted_pre)
    monkeypatch.setattr(BiDiffOp, "postcompose", counted_post)
    conjugate_star(t, B)
    # (b, c, d) with b + c + d <= 4: C(7, 3) = 35 distinct triples
    assert len(pre) == len(set(pre)) == 35
    # postcomposition is linear, so the triples with b + c + d = j are
    # summed first: (a, j) with a >= 1 and a + j <= 4 gives 10 calls
    assert len(post) == 10
    assert all(P != DiffOp.identity(1, D) for P in post)


def test_opposite_star():
    D = 10
    t = flat_table(2, D)
    t_op = opposite_star(t)
    assert t_op.convention == "wick"
    assert tables_agree(opposite_star(t_op), t)
    out = star_eval(t_op, zbj(D), zj(D))
    assert out[1].is_zero()
    out = star_eval(t_op, zj(D), zbj(D))
    assert out[1] == Jet.constant(1, 1, D)


def test_dual_star_flat():
    D = 14
    t = flat_table(2, D)
    Iop = transform_from_star(t)
    dual = dual_star(t, Iop)
    # dual of the dual is the original table
    I2 = transform_from_star(dual)
    dd = dual_star(dual, I2)
    assert tables_agree(dd, t)
    # dual-then-opposite gives the Wick-type table with C_1(f,g) = -df/dz dg/dzbar
    bt = opposite_star(dual)
    assert bt.convention == "wick"
    expect_c1 = BiDiffOp(1, D, [(Jet.constant(-1, 1, D), (1, 0), (0, 1))])
    f = zj(D)
    g = zbj(D)
    assert bt.C[1].apply(f, g) == expect_c1.apply(f, g)
    assert bt.C[1].apply(g, f) == expect_c1.apply(g, f)


def test_convention_enforcement_property():
    D = 10
    t = flat_table(2, D)
    # holomorphic left factor multiplies pointwise
    a = zj(D) * zj(D)
    g = zbj(D) + zj(D) * zbj(D)
    out = star_eval(t, a, g)
    assert out[0] == a * g and out[1].is_zero() and out[2].is_zero()
    b = zbj(D) * zbj(D)
    out = star_eval(t, g, b)
    assert out[0] == g * b and out[1].is_zero() and out[2].is_zero()


def test_detect_convention():
    t = flat_table(2, 8)
    assert detect_convention(t.C) == "karabegov_anti_wick"
    assert detect_convention([c.swap() for c in t.C]) == "wick"
