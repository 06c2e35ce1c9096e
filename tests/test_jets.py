"""Exact jet arithmetic, metric, Laplacian and Poisson bracket checks."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from starq.jets import (
    Jet, Scalar, ZeroConstantTerm, DegenerateMetric,
    hessian, inverse_metric, jet_det, jet_from_json, jet_to_json, mi_splits,
)

from paper_checks import (
    jet_conj, jet_monomial, laplacian, mi_range, poisson_bracket,
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


@pytest.mark.parametrize("n, D", [(1, 8), (2, 6)])
def test_bounded_product_is_the_product_cut_at_its_bound(n, D):
    """mul_to(other, bound) is the full product cut at bound, from below the
    lowest degree sum of its factors, 3, where it is zero, through D."""
    z, zb = Jet.variable(0, n, D), Jet.variable(n - 1, n, D, "anti")
    a = z + (zb * zb).scale(Fraction(1, 2)) + (z * z * zb).scale(Scalar(0, 3))
    b = zb * z - (z * zb * zb).scale(5)
    assert a.mul_to(b, 2).is_zero() and not (a * b).is_zero()
    for bound in range(-1, D + 1):
        assert a.mul_to(b, bound) == (a * b).drop_above(bound), bound


def test_diff_examples():
    f = jet_monomial((2,), (1,), 1, 6)  # z^2 zbar
    assert f.diff(0, "holo") == jet_monomial((1,), (1,), 1, 6, Scalar(2))
    g = jet_monomial((2,), (0,), 1, 6)
    assert g.diff(0, "anti").is_zero()


def test_diff_log_series():
    # d2/dz dzbar of log(1+z zbar) = 1 - 2 z zbar + 3 z^2 zbar^2 - ...
    D = 6
    f = log1p_jet(D)
    d = f.diff(0, "holo").diff(0, "anti")
    expect = Jet(1, D, {((k,), (k,)): Scalar((-1) ** k * (k + 1)) for k in range(0, 3)})
    # derivative trustworthy through degree D-2
    assert d.truncate(D - 2) == expect.truncate(D - 2)


def seeded_jet(rng, n, D):
    """A jet with about half of its monomials of degree <= D present, each
    with a small exact complex coefficient."""
    keys = [(h, a) for h in mi_range(n, D) for a in mi_range(n, D)
            if sum(h) + sum(a) <= D]
    return Jet(n, D, {k: Scalar(Fraction(rng.randint(-5, 5),
                                         rng.randint(1, 4)),
                                rng.randint(-3, 3))
                      for k in keys if rng.random() < 0.5})


@pytest.mark.parametrize("n", [1, 2])
def test_mi_splits_is_the_leibniz_rule(n):
    """d^a (u v) = sum_b C(a, b) d^b u d^(a-b) v over mi_splits(a), for
    every exponent tuple a with |a| <= 3, through degree D - |a|, the
    degree the truncated product keeps exact."""
    D = 5
    rng = random.Random(n)
    u, v = seeded_jet(rng, n, D), seeded_jet(rng, n, D)
    uv = u * v
    orders = [a for a in itertools.product(range(4), repeat=2 * n)
              if sum(a) <= 3]
    assert len(orders) == (10 if n == 1 else 35)
    for a in orders:
        expect = Jet.zero(n, D)
        for b, rest, binom in mi_splits(a):
            expect = expect + (u.diff_multi(b)
                               * v.diff_multi(rest)).scale(binom)
        got = uv.diff_multi(a)
        assert not got.is_zero()
        assert got.drop_above(D - sum(a)) == expect.drop_above(D - sum(a)), a


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
    assert hessian(phi)[0][0] == Jet.constant(1, 1, D)
    assert inverse_metric(phi)[0][0] == Jet.constant(1, 1, D)


def test_metric_fs():
    D = 8
    phi = log1p_jet(D)
    # g = (1+z zbar)^{-2} = 1 - 2 t + 3 t^2 - ..., reliable through D-2
    expect_g = Jet(1, D, {((k,), (k,)): Scalar((-1) ** k * (k + 1)) for k in range(4)})
    assert hessian(phi)[0][0].truncate(D - 2) == expect_g.truncate(D - 2)
    # g_inv = (1 + z zbar)^2
    expect_ginv = Jet(1, D, {((0,), (0,)): Scalar(1), ((1,), (1,)): Scalar(2),
                             ((2,), (2,)): Scalar(1)})
    assert inverse_metric(phi)[0][0].truncate(D - 2) == \
        expect_ginv.truncate(D - 2)


def test_metric_anisotropic():
    D = 4
    z1 = Jet.variable(0, 2, D)
    z2 = Jet.variable(1, 2, D)
    zb1 = Jet.variable(0, 2, D, "anti")
    zb2 = Jet.variable(1, 2, D, "anti")
    phi = z1 * zb1 + (z2 * zb2).scale(2)
    g = hessian(phi)
    assert g[0][0] == Jet.constant(1, 2, D)
    assert g[1][1] == Jet.constant(2, 2, D)
    assert g[0][1].is_zero() and g[1][0].is_zero()
    assert inverse_metric(phi)[1][1] == Jet.constant(Fraction(1, 2), 2, D)


def test_metric_degenerate():
    D = 4
    phi = jz(1, D) * jz(1, D)  # no mixed hessian
    with pytest.raises(DegenerateMetric):
        inverse_metric(phi)


def test_laplacian_flat():
    D = 6
    g_inv = inverse_metric(jz(1, D) * jzb(1, D))
    assert laplacian(jz(1, D) * jzb(1, D), g_inv) == Jet.constant(1, 1, D)
    f = jet_monomial((2,), (2,), 1, D)
    assert laplacian(f, g_inv) == jet_monomial((1,), (1,), 1, D, Scalar(4))


def test_laplacian_fs_height_at_zero():
    D = 10
    phi = log1p_jet(D)
    g_inv = inverse_metric(phi)
    t = jz(1, D) * jzb(1, D)
    f = (Jet.constant(1, 1, D) - t) * (Jet.constant(1, 1, D) + t).inverse()
    lap = laplacian(f, g_inv)
    assert lap.constant_term() == Scalar(-2)


def test_poisson_flat_examples():
    D = 6
    g_inv = inverse_metric(jz(1, D) * jzb(1, D))
    assert poisson_bracket(jzb(1, D), jz(1, D), g_inv) == Jet.constant(Scalar(0, 1), 1, D)
    f = jz(1, D) * jzb(1, D) + jz(1, D)
    assert poisson_bracket(f, f, g_inv).is_zero()
    assert poisson_bracket(jz(1, D), jz(1, D), g_inv).is_zero()


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
    real_pert = pert + jet_conj(pert)
    g, g_inv = hessian(quad + real_pert), inverse_metric(quad + real_pert)
    for i in range(2):
        for j in range(2):
            acc = Jet.zero(2, D)
            for k in range(2):
                acc = acc + g_inv[i][k] * g[k][j]
            expect = Jet.constant(1 if i == j else 0, 2, D)
            assert acc == expect
    assert jet_det(g) * jet_det(g_inv) == Jet.constant(1, 2, D)


def test_metric_inverse_non_diagonal_n3():
    # off-diagonal entries in every row and column, so each cofactor sign of
    # adj(g) / det g is exercised
    D = 6
    z = [Jet.variable(i, 3, D) for i in range(3)]
    zb = [Jet.variable(i, 3, D, "anti") for i in range(3)]
    phi = (z[0] * zb[0] + (z[1] * zb[1]).scale(2) + z[2] * zb[2]
           + z[0] * zb[0] * z[2] * zb[2]
           + (z[0] * zb[2] + z[2] * zb[0]).scale(Fraction(1, 4))
           + (z[0] * zb[1]).scale(Scalar(0, 1))
           - (z[1] * zb[0]).scale(Scalar(0, 1)))
    g, g_inv = hessian(phi), inverse_metric(phi)
    for i in range(3):
        for j in range(3):
            for a, b in ((g, g_inv), (g_inv, g)):
                acc = Jet.zero(3, D)
                for k in range(3):
                    acc = acc + a[i][k] * b[k][j]
                assert acc == Jet.constant(1 if i == j else 0, 3, D)


@settings(max_examples=40, deadline=None)
@given(jets(D=6, max_terms=3), jets(D=6, max_terms=3), jets(D=6, max_terms=3))
def test_poisson_antisymmetry_leibniz(f, g, h):
    D = 6
    g_inv = inverse_metric(jz(1, D) * jzb(1, D))
    assert poisson_bracket(f, g, g_inv) == -poisson_bracket(g, f, g_inv)
    # bracket consumes one derivative per slot; products are exact in the
    # truncated ring, so compare below the top two degrees
    lhs = poisson_bracket(h, f * g, g_inv)
    rhs = poisson_bracket(h, f, g_inv) * g + f * poisson_bracket(h, g, g_inv)
    assert lhs.truncate(D - 2) == rhs.truncate(D - 2)


def test_json_roundtrip():
    f = Jet(1, 6, {((2,), (1,)): Scalar(Fraction(3, 7), Fraction(-1, 2)),
                   ((0,), (0,)): Scalar(5)})
    assert jet_from_json(jet_to_json(f)) == f


def test_json_refuses_a_repeated_monomial():
    """A monomial listed twice is refused, not read as its last copy."""
    obj = jet_to_json(Jet(2, 4, {((1, 0), (0, 1)): Scalar(1)}))
    obj["terms"].append(dict(obj["terms"][0], re="1/2"))
    with pytest.raises(ValueError, match=r"dz \[1, 0\], dzbar \[0, 1\]"):
        jet_from_json(obj)


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
    assert all(len(k) == 2 * jet.n and sum(k) <= jet.max_degree
               for k in jet.num)
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
        (a.diff_multi(holo + anti), ref_diff_multi(ref(a), holo, anti)),
        (jet_conj(a), {(an, h): (re, -im) for (h, an), (re, im) in ref(a).items()}),
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
