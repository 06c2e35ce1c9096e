"""Exact jet arithmetic, metric, Laplacian and Poisson bracket checks."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from starq.jets import (
    I, ONE, Jet, Scalar, ZeroConstantTerm, DegenerateMetric,
    hessian, jet_det, jet_from_json, jet_to_json,
    laplacian, metric_from_potential, mi_range, poisson_bracket,
)


def jz(n=1, D=6):
    return Jet.variable(0, n, D, "holo")


def jzb(n=1, D=6):
    return Jet.variable(0, n, D, "anti")


def log1p_jet(D):
    """log(1 + z zbar) truncated at total degree D (n=1)."""
    t = jz(1, D) * jzb(1, D)
    out = Jet.zero(1, D)
    power = Jet.constant(1, 1, D)
    for j in range(1, D // 2 + 1):
        power = power * t
        out = out + power.scale(Scalar(Fraction((-1) ** (j + 1), j)))
    return out


# ---------------------------------------------------------------------------
# arithmetic

def test_mul_expansion():
    D = 4
    a = Jet.constant(1, 1, D) + jz(1, D)
    b = Jet.constant(1, 1, D) + jzb(1, D)
    expect = (Jet.constant(1, 1, D) + jz(1, D) + jzb(1, D) + jz(1, D) * jzb(1, D))
    assert a * b == expect


def test_mul_zero_annihilates():
    a = jz() + jzb() * jzb()
    assert (a * Jet.zero(1, 6)).is_zero()


def test_truncation_drops_high_degree():
    D = 2
    z = Jet.variable(0, 1, D)
    z2 = z * z
    assert (z2 * z).is_zero()


def test_diff_examples():
    f = Jet.monomial((2,), (1,), 1, 6)  # z^2 zbar
    assert f.diff(0, "holo") == Jet.monomial((1,), (1,), 1, 6, Scalar(2))
    g = Jet.monomial((2,), (0,), 1, 6)
    assert g.diff(0, "anti").is_zero()


def test_diff_log_series():
    # d2/dz dzbar of log(1+z zbar) = 1 - 2 z zbar + 3 z^2 zbar^2 - ...
    D = 6
    f = log1p_jet(D)
    d = f.diff(0, "holo").diff(0, "anti")
    expect = Jet(1, D, {((k,), (k,)): Scalar((-1) ** k * (k + 1)) for k in range(0, 3)})
    # derivative trustworthy through degree D-2
    assert d.truncate(D - 2) == expect.truncate(D - 2)


def test_inverse_examples():
    D = 6
    one = Jet.constant(1, 1, D)
    assert one.inverse() == one
    f = one + jz(1, D) * jzb(1, D)
    inv = f.inverse()
    expect = Jet(1, D, {((k,), (k,)): Scalar((-1) ** k) for k in range(0, 4)})
    assert inv == expect
    g = Jet.constant(2, 1, D) + jz(1, D)
    ginv = g.inverse()
    expect = Jet(1, D, {((k,), (0,)): Scalar(Fraction((-1) ** k, 2 ** (k + 1)))
                        for k in range(0, D + 1)})
    assert ginv == expect


def test_inverse_zero_constant_term():
    with pytest.raises(ZeroConstantTerm):
        jz().inverse()


def test_log_examples():
    D = 8
    one = Jet.constant(1, 1, D)
    t = jz(1, D) * jzb(1, D)
    assert (one + t).log() == log1p_jet(D)
    # the constant log 3 is dropped
    assert (one + t).scale(3).log() == log1p_jet(D)
    assert one.log().is_zero()
    with pytest.raises(ZeroConstantTerm):
        t.log()


def test_log_det_fs():
    D = 10
    one = Jet.constant(1, 1, D)
    t = jz(1, D) * jzb(1, D)
    g = (one + t).inverse() * (one + t).inverse()
    assert jet_det([[g]]).log() == log1p_jet(D).scale(-2)
    # from the potential, the Hessian is reliable through D - 2
    got = jet_det(hessian(log1p_jet(D))).log()
    assert got.truncate(D - 2) == log1p_jet(D).scale(-2).truncate(D - 2)


def test_det_anisotropic_and_3x3():
    D = 4
    z1, z2 = Jet.variable(0, 2, D), Jet.variable(1, 2, D)
    zb1, zb2 = Jet.variable(0, 2, D, "anti"), Jet.variable(1, 2, D, "anti")
    det = jet_det(hessian(z1 * zb1 + (z2 * zb2).scale(2)))
    assert det == Jet.constant(2, 2, D)
    assert det.log().is_zero()
    rows = [[1, 2, 0], [0, 1, 3], [4, 0, 1]]
    mat = [[Jet.constant(x, 1, D) for x in row] for row in rows]
    assert jet_det(mat) == Jet.constant(25, 1, D)


# ---------------------------------------------------------------------------
# metric / laplacian / bracket

def test_metric_flat():
    D = 6
    phi = jz(1, D) * jzb(1, D)
    m = metric_from_potential(phi)
    assert m.g[0][0] == Jet.constant(1, 1, D)
    assert m.g_inv[0][0] == Jet.constant(1, 1, D)


def test_metric_fs():
    D = 8
    phi = log1p_jet(D)
    m = metric_from_potential(phi)
    # g = (1+z zbar)^{-2} = 1 - 2 t + 3 t^2 - ..., reliable through D-2
    expect_g = Jet(1, D, {((k,), (k,)): Scalar((-1) ** k * (k + 1)) for k in range(4)})
    assert m.g[0][0].truncate(D - 2) == expect_g.truncate(D - 2)
    # g_inv = (1 + z zbar)^2
    expect_ginv = Jet(1, D, {((0,), (0,)): Scalar(1), ((1,), (1,)): Scalar(2),
                             ((2,), (2,)): Scalar(1)})
    assert m.g_inv[0][0].truncate(D - 2) == expect_ginv.truncate(D - 2)


def test_metric_anisotropic():
    D = 4
    z1 = Jet.variable(0, 2, D)
    z2 = Jet.variable(1, 2, D)
    zb1 = Jet.variable(0, 2, D, "anti")
    zb2 = Jet.variable(1, 2, D, "anti")
    phi = z1 * zb1 + (z2 * zb2).scale(2)
    m = metric_from_potential(phi)
    assert m.g[0][0] == Jet.constant(1, 2, D)
    assert m.g[1][1] == Jet.constant(2, 2, D)
    assert m.g[0][1].is_zero() and m.g[1][0].is_zero()
    assert m.g_inv[1][1] == Jet.constant(Scalar(Fraction(1, 2)), 2, D)


def test_metric_degenerate():
    D = 4
    phi = jz(1, D) * jz(1, D)  # no mixed hessian
    with pytest.raises(DegenerateMetric):
        metric_from_potential(phi)


def test_laplacian_flat():
    D = 6
    m = metric_from_potential(jz(1, D) * jzb(1, D))
    assert laplacian(jz(1, D) * jzb(1, D), m) == Jet.constant(1, 1, D)
    f = Jet.monomial((2,), (2,), 1, D)
    assert laplacian(f, m) == Jet.monomial((1,), (1,), 1, D, Scalar(4))


def test_laplacian_fs_height_at_zero():
    D = 10
    phi = log1p_jet(D)
    m = metric_from_potential(phi)
    t = jz(1, D) * jzb(1, D)
    f = (Jet.constant(1, 1, D) - t) * (Jet.constant(1, 1, D) + t).inverse()
    lap = laplacian(f, m)
    assert lap.constant_term() == Scalar(-2)


def test_poisson_flat_examples():
    D = 6
    m = metric_from_potential(jz(1, D) * jzb(1, D))
    assert poisson_bracket(jzb(1, D), jz(1, D), m) == Jet.constant(I, 1, D)
    f = jz(1, D) * jzb(1, D) + jz(1, D)
    assert poisson_bracket(f, f, m).is_zero()
    assert poisson_bracket(jz(1, D), jz(1, D), m).is_zero()


# ---------------------------------------------------------------------------
# property tests

def scalars():
    fr = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    return st.builds(Scalar, fr, fr)


def jets(n=1, D=6, max_terms=4):
    keys = mi_range(n, D)
    pair = st.tuples(st.sampled_from(keys), st.sampled_from(keys)).filter(
        lambda p: sum(p[0]) + sum(p[1]) <= D)
    return st.dictionaries(pair, scalars(), max_size=max_terms).map(
        lambda t: Jet(n, D, t))


@settings(max_examples=60, deadline=None)
@given(jets(), jets(), jets())
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(jets(), scalars())
@example(Jet(1, 6, {((0,), (0,)): Scalar(-4, -4)}), Scalar(-1, 4))
def test_inverse_roundtrip(a, c0):
    # a's own constant term is replaced, so f(0) = c0 + 5 has real part >= 1
    n, D = a.n, a.max_degree
    f = a - Jet.constant(a.constant_term(), n, D) \
        + Jet.constant(c0 + Scalar(5), n, D)
    assert (f * f.inverse()).truncate(D) == Jet.constant(1, n, D)


@settings(max_examples=40, deadline=None)
@given(jets(), scalars())
def test_log_derivative(a, c0):
    # (d log a) a = d a through degree D - 1 for a unit a
    n, D = a.n, a.max_degree
    f = a - Jet.constant(a.constant_term(), n, D) \
        + Jet.constant(c0 + Scalar(5), n, D)
    log_f = f.log()
    for kind in ("holo", "anti"):
        lhs = log_f.diff(0, kind) * f
        assert lhs.truncate(D - 1) == f.diff(0, kind).truncate(D - 1)


@settings(max_examples=40, deadline=None)
@given(jets(n=2, D=4, max_terms=3))
def test_metric_inverse_roundtrip(bump):
    D = 4
    z1 = Jet.variable(0, 2, D)
    z2 = Jet.variable(1, 2, D)
    zb1 = Jet.variable(0, 2, D, "anti")
    zb2 = Jet.variable(1, 2, D, "anti")
    quad = z1 * zb1 + (z2 * zb2).scale(3)
    # degree >= 3 perturbation keeps the base Hessian invertible
    pert = Jet(2, D, {k: c for k, c in bump.terms.items()
                      if sum(k[0]) + sum(k[1]) >= 3})
    real_pert = pert + pert.conj()
    m = metric_from_potential(quad + real_pert)
    for i in range(2):
        for j in range(2):
            acc = Jet.zero(2, D)
            for k in range(2):
                acc = acc + m.g_inv[i][k] * m.g[k][j]
            expect = Jet.constant(1 if i == j else 0, 2, D)
            assert acc == expect
    assert jet_det(m.g) * jet_det(m.g_inv) == Jet.constant(1, 2, D)


def test_metric_inverse_non_diagonal_n3():
    # off-diagonal entries in every row and column, so each cofactor sign of
    # adj(g) / det g is exercised
    D = 6
    z = [Jet.variable(i, 3, D) for i in range(3)]
    zb = [Jet.variable(i, 3, D, "anti") for i in range(3)]
    phi = (z[0] * zb[0] + (z[1] * zb[1]).scale(2) + z[2] * zb[2]
           + z[0] * zb[0] * z[2] * zb[2]
           + (z[0] * zb[2] + z[2] * zb[0]).scale(Fraction(1, 4))
           + (z[0] * zb[1]).scale(I) - (z[1] * zb[0]).scale(I))
    m = metric_from_potential(phi)
    for i in range(3):
        for j in range(3):
            for a, b in ((m.g, m.g_inv), (m.g_inv, m.g)):
                acc = Jet.zero(3, D)
                for k in range(3):
                    acc = acc + a[i][k] * b[k][j]
                assert acc == Jet.constant(1 if i == j else 0, 3, D)


@settings(max_examples=40, deadline=None)
@given(jets(D=6, max_terms=3), jets(D=6, max_terms=3), jets(D=6, max_terms=3))
def test_poisson_antisymmetry_leibniz(f, g, h):
    D = 6
    m = metric_from_potential(jz(1, D) * jzb(1, D))
    assert poisson_bracket(f, g, m) == -poisson_bracket(g, f, m)
    # bracket consumes one derivative per slot; products are exact in the
    # truncated ring, so compare below the top two degrees
    lhs = poisson_bracket(h, f * g, m)
    rhs = poisson_bracket(h, f, m) * g + f * poisson_bracket(h, g, m)
    assert lhs.truncate(D - 2) == rhs.truncate(D - 2)


def test_json_roundtrip():
    f = Jet(1, 6, {((2,), (1,)): Scalar(Fraction(3, 7), Fraction(-1, 2)),
                   ((0,), (0,)): Scalar(5)})
    assert jet_from_json(jet_to_json(f)) == f


# ---------------------------------------------------------------------------
# integer-numerator core against a plain Fraction reference

def gaussians():
    # non-dyadic denominators, so shared-denominator rescaling is exercised
    fr = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 7, 21]))
    return st.builds(Scalar, fr, fr)


def gaussian_jets(n, D, max_terms=5):
    keys = [(h, a) for h in mi_range(n, D) for a in mi_range(n, D)
            if sum(h) + sum(a) <= D]
    return st.dictionaries(st.sampled_from(keys), gaussians(),
                           max_size=max_terms).map(lambda t: Jet(n, D, t))


def ref(jet):
    """{key: (re, im)} as Fractions, zero coefficients absent."""
    return {k: (c.re, c.im) for k, c in jet.terms.items()}


def ref_add(a, b, sign=1):
    out = dict(a)
    for k, (re, im) in b.items():
        r0, i0 = out.get(k, (0, 0))
        out[k] = (r0 + sign * re, i0 + sign * im)
    return {k: v for k, v in out.items() if v != (0, 0)}


def ref_mul(a, b, D):
    out = {}
    for (h1, a1), (r1, i1) in a.items():
        for (h2, a2), (r2, i2) in b.items():
            h = tuple(x + y for x, y in zip(h1, h2))
            an = tuple(x + y for x, y in zip(a1, a2))
            if sum(h) + sum(an) > D:
                continue
            r0, i0 = out.get((h, an), (0, 0))
            out[(h, an)] = (r0 + r1 * r2 - i1 * i2, i0 + r1 * i2 + i1 * r2)
    return {k: v for k, v in out.items() if v != (0, 0)}


def ref_scale(a, c):
    out = {k: (re * c.re - im * c.im, re * c.im + im * c.re)
           for k, (re, im) in a.items()}
    return {k: v for k, v in out.items() if v != (0, 0)}


def ref_diff_multi(a, holo, anti):
    out = {}
    for (h, an), (re, im) in a.items():
        if any(x < y for x, y in zip(h + an, holo + anti)):
            continue
        f = 1
        for x, y in zip(h + an, holo + anti):
            for j in range(y):
                f *= x - j
        key = (tuple(x - y for x, y in zip(h, holo)),
               tuple(x - y for x, y in zip(an, anti)))
        out[key] = (re * f, im * f)
    return out


def assert_canonical(jet):
    assert jet.den > 0
    assert all(re or im for re, im in jet.num.values())
    assert all(sum(h) + sum(a) <= jet.max_degree for h, a in jet.num)
    assert math.gcd(jet.den, *(x for v in jet.num.values() for x in v)) == 1


@pytest.mark.parametrize("n, D", [(1, 6), (2, 4)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_core_matches_fraction_reference(n, D, data):
    a = data.draw(gaussian_jets(n, D))
    b = data.draw(gaussian_jets(n, D))
    c = data.draw(gaussians())
    holo = tuple(data.draw(st.integers(0, 2)) for _ in range(n))
    anti = tuple(data.draw(st.integers(0, 2)) for _ in range(n))
    # b - a.scale(...) makes sums that cancel term by term, often to zero
    cancel = b - a.scale(c) if data.draw(st.booleans()) else a.scale(-1)
    cases = [
        (a + b, ref_add(ref(a), ref(b))),
        (a - b, ref_add(ref(a), ref(b), -1)),
        (a + cancel, ref_add(ref(a), ref(cancel))),
        (a * b, ref_mul(ref(a), ref(b), D)),
        (a * cancel, ref_mul(ref(a), ref(cancel), D)),
        (a.scale(c), ref_scale(ref(a), c)),
        (a.diff_multi(holo, anti), ref_diff_multi(ref(a), holo, anti)),
        (a.conj(), {(an, h): (re, -im) for (h, an), (re, im) in ref(a).items()}),
    ]
    for got, expect in cases:
        assert_canonical(got)
        assert ref(got) == expect
    assert (a - a).is_zero() and (a + a.scale(-1)) == Jet.zero(n, D)
    f = a + Jet.constant(c + Scalar(Fraction(5, 7)), n, D)
    assume(not f.constant_term().is_zero())
    inv = f.inverse()
    assert_canonical(inv)
    assert ref_mul(ref(f), ref(inv), D) == {((0,) * n, (0,) * n): (1, 0)}
