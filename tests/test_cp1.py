"""Sphere quantization: exact structure, coherent states, asymptotics."""

import math
from fractions import Fraction

import numpy as np
import pytest

from starq import NonFiniteResult, ResourceGuard
from starq.cp1 import (
    AsymSeries, berezin_defect_series, berezin_transform_num, bms_suite,
    coherent_vector, covariant_symbol, operator_norm, toeplitz_matrix,
)
from starq.symbols import (
    ObservableFn, UnboundedSymbol, laplacian_fn, make_context,
    poisson_bracket_fn, reduce_terms,
)
from starq import cp1
from starq.cp1 import _section_matrix

from paper_checks import (
    _coherent_grid, adjointness_check, contravariant_reconstruct,
    coord_x_observable, epsilon_function, geometric_quantization,
    height_observable, integral_exact, is_real, surjectivity_rank,
    trace_identity, tuynman_defect, twisted_product,
)

TWO_PI = 2 * math.pi


def sample_points(k=50, seed=3):
    rng = np.random.default_rng(seed)
    cth = rng.uniform(-0.9, 0.9, k)
    phi = rng.uniform(0, TWO_PI, k)
    return np.sqrt((1 - cth) / (1 + cth)) * np.exp(1j * phi)


# ---------------------------------------------------------------------------
# context and observables

def test_context_exact_norms():
    ctx = make_context(1)
    assert ctx.dim == 2
    assert ctx.norms_over_2pi == (Fraction(1, 2), Fraction(1, 2))
    ctx = make_context(2)
    assert ctx.norms_over_2pi == (Fraction(1, 3), Fraction(1, 6),
                                  Fraction(1, 3))
    assert make_context(7).dim == 8


def test_context_builds_no_grid():
    """The exact paths give their exact values; no library path reaches a
    quadrature grid, which test_library_keeps_only_what_runs keeps out of
    src/starq."""
    h, x = height_observable(), coord_x_observable()
    ctx = make_context(8)
    assert abs(toeplitz_matrix(h, ctx)[0, 0] - 8 / 10) < 1e-12
    assert abs(berezin_transform_num(h, 0j, ctx) - 8 / 10) < 1e-12
    assert all(len(s.points) == 2 for s in bms_suite(h, x, [8, 16]))


def test_observable_constraints():
    with pytest.raises(UnboundedSymbol):
        ObservableFn(terms=((1.0, 3, 0, 1),))
    h = height_observable()
    assert is_real(h)
    assert abs(h(0j) - 1) < 1e-14 and abs(h(1.0) - 0) < 1e-14
    assert not is_real(ObservableFn(terms=((1j, 0, 0, 0),)))


def test_unbounded_term_message_signs_the_exponent():
    """The message prints (1+zz)^{-c}: ^-1 for c = 1 and ^1, not ^--1, for
    c = -1."""
    with pytest.raises(UnboundedSymbol, match=r"\(1\+zz\)\^-1 is unbounded"):
        ObservableFn(terms=((1.0, 3, 0, 1),))
    with pytest.raises(UnboundedSymbol, match=r"\(1\+zz\)\^1 is unbounded"):
        ObservableFn(terms=((1.0, 0, 1, -1),))


def test_overflowed_coefficients_raise_non_finite_result():
    """inf - inf merges to NaN in reduce_terms, which would keep it as an
    unbounded term; an overflowed coefficient raises NonFiniteResult."""
    inf = float("inf")
    with pytest.raises(NonFiniteResult):
        reduce_terms([(inf, 0, 0, 1), (-inf, 0, 0, 1)])
    with pytest.raises(NonFiniteResult):
        laplacian_fn(ObservableFn(terms=((1e308, 0, 0, 1),
                                         (-1e308, 1, 1, 1))))
    # zz/(1+zz) + 1/(1+zz) = 1: finite terms still cancel
    assert reduce_terms([(1.0, 1, 1, 1), (1.0, 0, 0, 1)]) == [(1.0, 0, 0, 0)]


def test_laplacian_of_height():
    h = height_observable()
    lap = laplacian_fn(h)
    for z in (0j, 0.4 + 0.1j, 2.0 - 1.0j):
        assert abs(lap(z) + 2 * h(z)) < 1e-12
    assert abs(lap(0j) + 2) < 1e-14


def test_poisson_bracket_real_and_antisymmetric():
    h, x = height_observable(), coord_x_observable()
    br = poisson_bracket_fn(h, x)
    assert is_real(br)
    br2 = poisson_bracket_fn(x, h)
    for z in sample_points(10):
        assert abs(br(z) + br2(z)) < 1e-12
    with pytest.raises(UnboundedSymbol):
        # {h, .} of a bounded-but-borderline symbol can leave the class
        poisson_bracket_fn(ObservableFn(terms=((1.0, 2, 0, 1),)), x)


# ---------------------------------------------------------------------------
# Toeplitz matrices

def test_toeplitz_identity_and_height():
    ctx = make_context(6)
    one = ObservableFn.constant(1)
    assert np.allclose(toeplitz_matrix(one, ctx), np.eye(7), atol=1e-14)
    T = toeplitz_matrix(height_observable(), ctx)
    assert np.allclose(np.diag(T), [(6 - 2 * k) / 8 for k in range(7)],
                       atol=1e-14)
    assert np.max(np.abs(T - np.diag(np.diag(T)))) < 1e-14


def _toeplitz_reference(f, m):
    """Entry by entry from exact Fractions: each Beta integral converted
    once, divided by sqrt(float(n_j) float(n_k)), terms in f.terms order."""
    fact = math.factorial
    norms = [float(Fraction(fact(j) * fact(m - j), fact(m + 1)))
             for j in range(m + 1)]
    A = np.zeros((m + 1, m + 1), dtype=complex)
    for coeff, a, b, c in f.terms:
        for j in range(m + 1):
            k = j + b - a
            if 0 <= k <= m:
                p = j + b
                integral = Fraction(fact(p) * fact(m + c - p),
                                    fact(m + c + 1))
                A[j, k] += coeff * float(integral) / math.sqrt(
                    norms[j] * norms[k])
    return A


@pytest.mark.parametrize("m", [1, 8, 64, 512])
def test_toeplitz_matches_fraction_reference_bitwise(m):
    """The factorial-table entries are the exact-Fraction entries, bit for
    bit, for a mixed-c observable too (the table must reach (m+c_max+1)!)."""
    six = ObservableFn(terms=(
        (1.5 - 0.25j, 0, 0, 2), (0.75 + 2j, 1, 0, 2), (-1.25j, 0, 1, 2),
        (0.5 + 0.5j, 2, 0, 2), (-3.0 + 1j, 1, 1, 2), (2.25 - 1.5j, 0, 2, 2)))
    mixed = six + ObservableFn(terms=((0.375 - 1.75j, 2, 3, 3),
                                      (1.0 + 0j, 3, 1, 3)))
    ctx = make_context(m)
    for f in (height_observable(), six, mixed):
        got = toeplitz_matrix(f, ctx)
        assert got.tobytes() == _toeplitz_reference(f, m).tobytes()


def test_toeplitz_hermitian_and_positive():
    ctx = make_context(8)
    f = ObservableFn(terms=((1.0, 1, 0, 1), (1.0, 0, 1, 1), (2.0, 0, 0, 0)))
    T = toeplitz_matrix(f, ctx)
    assert is_real(f)
    assert np.max(np.abs(T - T.conj().T)) < 1e-12
    # f = 2 + x >= 1 > 0 on the sphere
    assert np.min(np.linalg.eigvalsh(T)) > -1e-10


def test_operator_norm():
    ctx = make_context(10)
    assert abs(operator_norm(np.eye(3, dtype=complex)) - 1) < 1e-14
    assert operator_norm(np.zeros((4, 4), dtype=complex)) == 0
    T = toeplitz_matrix(height_observable(), ctx)
    assert abs(operator_norm(T) - 10 / 12) < 1e-12


def test_non_finite_norm_and_defect_raise_non_finite_result():
    """operator_norm stops an inf or NaN entry before the SVD, which would
    not converge (a LinAlgError, exit 2), and berezin_defect_series stops a
    NaN defect, which max would drop (a defect of 0.0, exit 0)."""
    for bad in (float("inf"), float("nan")):
        with pytest.raises(NonFiniteResult):
            operator_norm(np.diag([1.0, bad]).astype(complex))
    with pytest.raises(NonFiniteResult), np.errstate(invalid="ignore"):
        berezin_defect_series(ObservableFn.constant(float("inf")),
                              ObservableFn(), [0j], [4])


# ---------------------------------------------------------------------------
# coherent states

def test_coherent_reproducing_property():
    ctx = make_context(7)
    for z0 in sample_points(50):
        e = coherent_vector(z0, ctx)
        S = _section_matrix(ctx, np.array([z0]))[:, 0]
        for l in (0, 3, 7):
            basis = np.zeros(8, dtype=complex)
            basis[l] = 1
            assert abs(np.vdot(e, basis) - S[l]) < 1e-10


def test_coherent_norm_constant_and_fiber_scaling():
    ctx = make_context(9)
    vals = [np.vdot(coherent_vector(z0, ctx), coherent_vector(z0, ctx)).real
            for z0 in sample_points(50)]
    assert max(vals) - min(vals) < 1e-10
    assert abs(vals[0] - ctx.dim / TWO_PI) < 1e-10


def test_coherent_at_origin():
    ctx = make_context(5)
    e = coherent_vector(0j, ctx)
    assert np.max(np.abs(e[1:])) == 0 and abs(e[0]) > 0


def test_covariant_symbol_phase_independent():
    ctx = make_context(6)
    T = toeplitz_matrix(height_observable(), ctx)
    z0 = 0.5 + 0.2j
    base = covariant_symbol(T, z0, ctx)
    e = coherent_vector(z0, ctx) * np.conjugate(np.exp(0.7j)) ** ctx.m
    val = np.vdot(e, T @ e) / np.vdot(e, e).real
    assert abs(val - base) < 1e-12
    assert abs(covariant_symbol(np.eye(7, dtype=complex), z0, ctx) - 1) < 1e-12


def test_epsilon_function():
    ctx = make_context(8)
    vals = [epsilon_function(z0, ctx) for z0 in sample_points(50)]
    assert max(vals) - min(vals) < 1e-10
    assert abs(vals[0] - ctx.dim / TWO_PI) < 1e-10
    # integral of the epsilon measure = dimension
    total = (ctx.dim / TWO_PI) * integral_exact(ObservableFn.constant(1))
    assert abs(total - ctx.dim) < 1e-8


# ---------------------------------------------------------------------------
# Berezin transform and symbol calculus

def test_berezin_transform_values():
    ctx = make_context(10)
    h = height_observable()
    assert abs(berezin_transform_num(ObservableFn.constant(1), 0.4j, ctx) - 1) < 1e-12
    assert abs(berezin_transform_num(h, 0j, ctx) - 10 / 12) < 1e-10
    # symbol bound chain on sampled points
    T = toeplitz_matrix(h, ctx)
    nrm = operator_norm(T)
    for z0 in sample_points(20):
        assert abs(covariant_symbol(T, z0, ctx)) <= nrm + 1e-12
    assert nrm <= h.sup_norm() + 1e-12


def test_trace_identity():
    ctx = make_context(9)
    lhs, rhs, defect = trace_identity(ObservableFn.constant(1), ctx)
    assert abs(lhs - ctx.dim) < 1e-10 and defect < 1e-10
    _, _, defect = trace_identity(height_observable(), ctx)
    assert defect < 1e-10


def test_adjointness():
    ctx = make_context(8)
    rng = np.random.default_rng(11)
    A = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    A = A + A.conj().T
    assert adjointness_check(A, height_observable(), ctx) < 1e-8
    # A = T_g case is symmetric in the two readings
    Tg = toeplitz_matrix(coord_x_observable(), ctx)
    assert adjointness_check(Tg, height_observable(), ctx) < 1e-8


def test_contravariant_reconstruction():
    assert contravariant_reconstruct(ObservableFn.constant(1),
                                     make_context(4)) < 1e-8
    assert contravariant_reconstruct(height_observable(),
                                     make_context(4)) < 1e-6


def test_twisted_product():
    ctx = make_context(8)
    h = height_observable()
    one = ObservableFn.constant(1)
    z0 = 0.3 + 0.1j
    assert abs(twisted_product(h, one, z0, ctx)
               - berezin_transform_num(h, z0, ctx)) < 1e-12
    assert abs(twisted_product(h, h, 0j, ctx) - (8 / 10) ** 2) < 1e-10
    # reference: the two-point integral form, regrouped through the
    # resolution of identity so no antipodal exclusion is needed
    Th = toeplitz_matrix(h, ctx)
    e = coherent_vector(z0, ctx)
    _, w, E, u = _coherent_grid(ctx)
    left = np.conjugate(e) @ (Th @ E)          # <e_x, T_h e_y> per node
    right = np.einsum("in,i->n", np.conjugate(E), Th @ e)
    integral = complex(np.sum(left * right * (ctx.dim / TWO_PI) * w / u)
                       / np.vdot(e, e).real)
    assert abs(twisted_product(h, h, z0, ctx) - integral) < 1e-6


def test_surjectivity_rank():
    assert surjectivity_rank(make_context(1)) == 4
    assert surjectivity_rank(make_context(2)) == 9
    with pytest.raises(ResourceGuard):
        surjectivity_rank(make_context(9))


# ---------------------------------------------------------------------------
# geometric quantization

def test_quantization_of_constant():
    ctx = make_context(5)
    Q = geometric_quantization(ObservableFn.constant(1), ctx)
    assert np.max(np.abs(Q - 1j * np.eye(6))) < 1e-10


def test_tuynman_identity():
    h = height_observable()
    for m in (4, 8, 16):
        assert tuynman_defect(h, make_context(m)) < 1e-8


def test_quantization_linearity():
    ctx = make_context(6)
    h, x = height_observable(), coord_x_observable()
    Qh = geometric_quantization(h, ctx)
    Qx = geometric_quantization(x, ctx)
    Q = geometric_quantization(h + x.scale(2), ctx)
    assert np.max(np.abs(Q - (Qh + 2 * Qx))) < 1e-10


# ---------------------------------------------------------------------------
# asymptotics

def test_norm_asymptotics():
    h = height_observable()
    pts = []
    for m in (8, 16, 32, 64, 128):
        nrm = operator_norm(toeplitz_matrix(h, make_context(m)))
        assert abs(nrm - m / (m + 2)) < 1e-10
        pts.append((m, 1.0 - nrm))
    series = AsymSeries.from_points(pts)
    assert abs(series.fit[1] + 1) < 0.05


def test_berezin_asymptotics():
    h = height_observable()
    series = berezin_defect_series(h, laplacian_fn(h), sample_points(12),
                                   (8, 16, 32, 64, 128))
    assert abs(series.fit[1] + 1) < 0.15
    ctx = make_context(16)
    assert abs(berezin_transform_num(h, 0j, ctx) - 16 / 18) < 1e-10


def test_bms_suite_slopes():
    h, x = height_observable(), coord_x_observable()
    sa, sb, sc = bms_suite(h, x, (8, 16, 32, 64, 128))
    assert abs(sa.fit[1] + 1) < 0.05
    assert abs(sb.fit[1] + 1) < 0.2
    assert abs(sc.fit[1] + 1) < 0.2
    for series in (sb, sc):
        vals = [v for _, v in series.points]
        assert all(a > b for a, b in zip(vals, vals[1:]))


_BMS_PAIRS = [
    (height_observable(), coord_x_observable()),
    (ObservableFn(terms=(((1.5 - 0.25j), 0, 0, 2), ((0.75 + 2j), 1, 0, 2),
                         (-1.25j, 0, 1, 2), ((-3 + 1j), 1, 1, 2))),
     ObservableFn(terms=((2j, 1, 1, 2), ((0.5 + 0.5j), 2, 0, 2),
                         (-1.0, 0, 0, 1)))),
    (height_observable(), ObservableFn()),
]


@pytest.mark.parametrize("m", [1, 63, 64, 65, 100, 512])
def test_row_blocked_product_and_band_subtraction_match_dense(m):
    """T_g overwritten by T_g T_f, and T_f by T_f T_g, in row blocks equal
    one T_g @ T_f and one T_f @ T_g call, and subtracting a band in place
    equals subtracting its dense matrix, in tobytes(), for real and complex
    observables and an empty band (g = 0), on either side of the 64-row
    block and with a one-row tail (m = 512) folded in."""
    ctx = make_context(m)
    for f, g in _BMS_PAIRS:
        Tf, Tg = toeplitz_matrix(f, ctx), toeplitz_matrix(g, ctx)
        want = Tf @ Tg
        assert cp1._right_multiply(Tf.copy(), Tg).tobytes() == want.tobytes()
        want = Tg @ Tf
        got = cp1._right_multiply(Tg.copy(), Tf)
        assert got.tobytes() == want.tobytes()
        for h in (poisson_bracket_fn(f, g), f * g):
            in_place = got.copy()
            cp1._subtract_band(in_place, h, ctx)
            dense = got - toeplitz_matrix(h, ctx)
            assert in_place.tobytes() == dense.tobytes()


def test_product_entries_round_trip_bit_for_bit():
    """_scatter(_entries(A)) gives A back in tobytes(), a -0.0 in either
    part included: on a matrix built to hold them, and on T_f T_g, where
    zgemm writes -0.0 at (m, m) but a rebuild from the band of f g would
    give +0.0."""
    z = -0.0
    A = np.array([[0j, complex(z, 0.0), complex(0.0, z)],
                  [complex(z, z), 1.5 - 2j, complex(0.0, 3.0)],
                  [complex(-4.0, z), 0j, 5e-320 + 0j]])
    idx, values = cp1._entries(A)
    assert idx.tolist() == [1, 2, 3, 4, 5, 6, 8]
    assert cp1._scatter((idx, values), A.shape).tobytes() == A.tobytes()
    h, x = height_observable(), coord_x_observable()
    for m in (8, 512):
        ctx = make_context(m)
        P = toeplitz_matrix(h, ctx) @ toeplitz_matrix(x, ctx)
        assert P[m, m] == 0 and math.copysign(1.0, P[m, m].real) == -1.0
        entries = cp1._entries(P)
        assert len(entries[0]) < 2 * ctx.dim
        assert cp1._scatter(entries, P.shape).tobytes() == P.tobytes()
        band = toeplitz_matrix(h * x, ctx)
        assert math.copysign(1.0, band[m, m].real) == 1.0


def _dense_bms_points(f, g, m):
    """The three BMS defects at level m from dense matrices, each product
    one matmul call."""
    ctx = make_context(m)
    Tf, Tg = toeplitz_matrix(f, ctx), toeplitz_matrix(g, ctx)
    comm = (m * 1j) * (Tf @ Tg - Tg @ Tf) \
        - toeplitz_matrix(poisson_bracket_fn(f, g), ctx)
    prod = Tf @ Tg - toeplitz_matrix(f * g, ctx)
    return (f.sup_norm() - operator_norm(Tf), operator_norm(comm),
            operator_norm(prod))


def test_bms_suite_builds_no_dense_bracket_or_product(monkeypatch):
    """bms_suite builds only T_f, T_g and T_f again densely at each level;
    T_br and T_fg are subtracted as bands.  Its points equal those of the
    dense formulas bit for bit, for real and complex observables, an empty
    g, and levels on either side of the 64-row block."""
    built = []

    def counted(f, ctx, _toeplitz=cp1.toeplitz_matrix):
        built.append(f)
        return _toeplitz(f, ctx)
    monkeypatch.setattr(cp1, "toeplitz_matrix", counted)
    h, x = height_observable(), coord_x_observable()
    bms_suite(h, x, (8, 16))
    assert built == [h, x, h, h, x, h]
    monkeypatch.undo()
    levels = (8, 63, 65)
    for f, g in _BMS_PAIRS:
        got = [[v.hex() for _, v in s.points] for s in bms_suite(f, g, levels)]
        want = zip(*(_dense_bms_points(f, g, m) for m in levels))
        assert got == [[v.hex() for v in series] for series in want]


def test_bms_suite_peaks_under_two_and_a_half_matrices():
    """At m = 512 the numpy arrays and Python objects bms_suite allocates
    peak under 2.5 level-m matrices; three live matrices would pass it.
    LAPACK's copy for an SVD is malloc'd outside tracemalloc."""
    import tracemalloc
    h, x = height_observable(), coord_x_observable()
    h.sup_norm()
    level = 513 * 513 * 16
    tracemalloc.start()
    try:
        bms_suite(h, x, (512,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 2 * level < peak < 2.5 * level


def test_uniform_draws_match_numpy_default_rng():
    """The plain-Python sampler gives numpy's default_rng(seed).uniform
    doubles byte for byte: sup_norm's seed 7 with 4096 draws per bound,
    and two other seeds (the ends of the one-word range) and sizes."""
    from starq.symbols import _uniform_draws
    for seed, n, bounds in ((7, 4096, ((-1.0, 1.0), (0.0, TWO_PI))),
                            (0, 5, ((0.0, 1.0),)),
                            (2 ** 32 - 1, 777, ((-3.5, 2.25), (1.0, 1.5),
                                                (0.0, TWO_PI)))):
        rng = np.random.default_rng(seed)
        for got, (low, high) in zip(_uniform_draws(seed, bounds, n), bounds):
            assert np.array(got).tobytes() \
                == rng.uniform(low, high, n).tobytes()


def test_trace_scaling():
    f = ObservableFn(terms=((1.0, 0, 0, 1),))  # 1/(1+|z|^2), mean 1/2
    mean = integral_exact(f) / TWO_PI
    m = 128
    tr = np.trace(toeplitz_matrix(f, make_context(m))).real
    assert abs(tr / m - mean) / mean < 0.05
