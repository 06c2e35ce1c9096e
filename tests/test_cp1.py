"""Sphere quantization: exact structure, coherent states, asymptotics."""

import math
from fractions import Fraction

import numpy as np
import pytest

from starq import NonFiniteResult, ResourceGuard
from starq.cp1 import (
    AsymSeries, berezin_defect_series, bms_suite, coherent_vector,
    covariant_symbol, operator_norm, toeplitz_matrix,
)
from starq.symbols import (
    ObservableFn, UnboundedSymbol, laplacian_fn, make_context,
    poisson_bracket_fn, reduce_terms,
)
from starq import cp1

from paper_checks import (
    _coherent_grid, adjointness_check, contravariant_reconstruct,
    coord_x_observable, epsilon_function, geometric_quantization,
    height_observable, integral_exact, is_real, section_matrix,
    surjectivity_rank, trace_identity, tuynman_defect, twisted_product,
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
    assert abs(covariant_symbol(toeplitz_matrix(h, ctx), 0j, ctx) - 8 / 10) \
        < 1e-12
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
    f = ObservableFn(terms=((1.0, 1, 0, 1), (1.0, 0, 1, 1), (2.0, 0, 0, 0)))
    assert is_real(f)
    for m in (6, 8, 9):
        for g in (ObservableFn.constant(1), height_observable(),
                  coord_x_observable(), f):
            T = toeplitz_matrix(g, make_context(m))
            assert np.max(np.abs(T - T.conj().T)) < 1e-12
    # f = 2 + x >= 1 > 0 on the sphere
    T = toeplitz_matrix(f, make_context(8))
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
        S = section_matrix(ctx, np.array([z0]))[:, 0]
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
    for m in (6, 8, 9):
        ctx = make_context(m)
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
    one = toeplitz_matrix(ObservableFn.constant(1), ctx)
    assert abs(covariant_symbol(one, 0.4j, ctx) - 1) < 1e-12
    T = toeplitz_matrix(h, ctx)
    assert abs(covariant_symbol(T, 0j, ctx) - 10 / 12) < 1e-10
    # symbol bound chain on sampled points
    nrm = operator_norm(T)
    for z0 in sample_points(20):
        assert abs(covariant_symbol(T, z0, ctx)) <= nrm + 1e-12
    assert nrm <= h.sup_norm() + 1e-12


def test_trace_identity():
    for m in (6, 9):
        ctx = make_context(m)
        lhs, rhs, defect = trace_identity(ObservableFn.constant(1), ctx)
        assert abs(lhs - ctx.dim) < 1e-10 and defect < 1e-10
        for f in (height_observable(), coord_x_observable()):
            _, _, defect = trace_identity(f, ctx)
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
               - covariant_symbol(toeplitz_matrix(h, ctx), z0, ctx)) < 1e-12
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
    for m in range(1, 9):
        assert surjectivity_rank(make_context(m)) == (m + 1) ** 2
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
    """m (I_m h - h) - Delta h decays like 1/m, and I_m h(0) = m/(m + 2)."""
    h = height_observable()
    levels = (8, 16, 32, 64, 128)
    series = berezin_defect_series(h, laplacian_fn(h), sample_points(12),
                                   levels)
    assert abs(series.fit[1] + 1) < 0.15
    for m in levels:
        ctx = make_context(m)
        assert abs(covariant_symbol(toeplitz_matrix(h, ctx), 0j, ctx)
                   - m / (m + 2)) < 1e-10


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
    T_br and T_fg are subtracted as bands."""
    built = []

    def counted(f, ctx, _toeplitz=cp1.toeplitz_matrix):
        built.append(f)
        return _toeplitz(f, ctx)
    monkeypatch.setattr(cp1, "toeplitz_matrix", counted)
    h, x = height_observable(), coord_x_observable()
    bms_suite(h, x, (8, 16))
    assert built == [h, x, h, h, x, h]


@pytest.mark.parametrize("m", [1, 63, 64, 65, 100, 512])
def test_row_blocked_product_and_band_subtraction_match_dense(m):
    """bms_suite's products in row blocks, overwriting T_f and T_g, and its
    bands subtracted in place give the points of one T_f @ T_g and one
    T_g @ T_f call and dense subtractions, bit for bit: for real and
    complex observables and an empty band (g = 0), on either side of the
    64-row block and with a one-row tail (m = 512) folded in."""
    for f, g in _BMS_PAIRS:
        got = [s.points[0][1].hex() for s in bms_suite(f, g, (m,))]
        assert got == [v.hex() for v in _dense_bms_points(f, g, m)]


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


def _peaked_at(w):
    """(1 + conj(w) z)(1 + w zbar)/(1 + z zbar): its modulus falls with the
    distance from w on the sphere, so its largest value over a sample is at
    the sample point nearest w."""
    return ObservableFn(terms=((1.0, 0, 0, 1), (w.conjugate(), 1, 0, 1),
                               (w, 0, 1, 1), (abs(w) ** 2, 1, 1, 1)))


def test_uniform_draws_match_numpy_default_rng():
    """sup_norm is the largest |f| over 4096 sphere points, bit for bit: cos
    theta and phi are the doubles numpy's default_rng(7) draws by
    uniform(-1, 1, 4096) and then uniform(0, 2 pi, 4096).  The height, the
    first coordinate, a complex observable and observables peaked at ten
    directions each take their largest modulus at another sample point."""
    rng = np.random.default_rng(7)
    cth = rng.uniform(-1.0, 1.0, 4096)
    phi = rng.uniform(0.0, TWO_PI, 4096)
    z = np.sqrt((1 - cth) / (1 + cth)) * np.exp(1j * phi)
    observables = [_BMS_PAIRS[0][0], _BMS_PAIRS[0][1], _BMS_PAIRS[1][0]]
    observables += [_peaked_at(w) for w in (
        1j, -1j, 0.3 + 0.4j, -2 + 1j, 0.1 - 3j, 5j, 0.5 - 0.5j, -0.2 - 0.1j,
        3 + 3j, -1.5 - 0.5j)]
    argmax = {int(np.argmax(np.abs(f(z)))) for f in observables}
    assert len(argmax) == len(observables)
    for f in observables:
        assert f.sup_norm().hex() == float(np.max(np.abs(f(z)))).hex()


@pytest.mark.parametrize("c", [3, -2.5, 1e-300, 1.7 - 2.3j, 1e300 + 1e300j,
                               0])
def test_sup_norm_of_a_constant_is_its_modulus(c):
    """A constant goes through the sample like any observable and gives
    abs(c) bit for bit; 0 makes the observable with no terms."""
    got = ObservableFn.constant(c).sup_norm()
    assert (type(got), got.hex()) == (float, float(abs(c)).hex())


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect, ROADMAP item 14: from about m = 507 the band divides by "
    "a subnormal product of float norms"))
def test_toeplitz_of_one_is_the_identity_at_levels_512_and_533():
    """T_1 is the identity, exactly: the Beta integral of each diagonal
    entry is the norm it is divided by.  Today the largest |diag T_1 - 1|
    is 4.4e-14 at m = 512 and 0.216 at m = 533."""
    for m in (512, 533):
        T = toeplitz_matrix(ObservableFn.constant(1), make_context(m))
        assert np.array_equal(T, np.eye(m + 1)), m


def test_trace_scaling():
    f = ObservableFn(terms=((1.0, 0, 0, 1),))  # 1/(1+|z|^2), mean 1/2
    mean = integral_exact(f) / TWO_PI
    m = 128
    tr = np.trace(toeplitz_matrix(f, make_context(m))).real
    assert abs(tr / m - mean) / mean < 0.05
