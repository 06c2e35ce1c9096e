"""The paper's results that only the tests check, beside the library.

No command or benchmark driver runs these, so they live here and not in
starq: the Toeplitz trace formula, the adjointness of covariant and
contravariant symbols, Rawnsley's constant epsilon, Tuynman's relation
Q_f = i T_{f - Delta f/(2m)} for geometric quantization, the opposite and
dual products, the Moyal product, the multi-index range and the jet
Laplacian and Poisson bracket, with the helpers that only the tests call:
the sphere's height and first coordinate as observables, monomial and
conjugate jets, a DiffOp applied to a jet, the reality of an observable,
a dense non-radial potential, the Berezin product's potential, the
Berezin-Toeplitz table by conjugating that product with its transform, and
the largest coefficient of a graph polynomial.  The tests import them from
this module; pytest puts tests/ on sys.path.  `PYTHONPATH=src python
tests/paper_checks.py` checks star-bt's table against the Berezin
product at order 4, about 20 s (2 vCPU), too slow for tier-1.

Documented sign constant (pinned by the Tuynman test): the Hamiltonian
field at level m is X^z = i f_zbar (1+|z|^2)^2 / (2m), the unique scaling
for which the quantization operator equals i T_{f - Delta f/(2m)} exactly.
"""

import math
from fractions import Fraction

import numpy as np

from starq import ResourceGuard
from starq.cp1 import (
    coherent_vector, covariant_symbol, operator_norm, toeplitz_matrix,
)
from starq.formal import (
    BiDiffOp, DiffOp, OrderViolation, StarTable, conjugate_star,
    detect_convention, transform_from_star,
)
from starq.graphs import Poly, kontsevich_star
from starq.jets import (
    ONE, Jet, Scalar, hessian, inverse_metric, jet_det, mi_zero,
)
from starq.karabegov import FormalPotential, karabegov_star
from starq.symbols import TWO_PI, ObservableFn, laplacian_fn


# ---------------------------------------------------------------------------
# sphere: coordinate observables

def height_observable():
    """(1 - |z|^2)/(1 + |z|^2), the third sphere coordinate."""
    return ObservableFn(terms=((1.0, 0, 0, 1), (-1.0, 1, 1, 1)))


def coord_x_observable():
    """(z + zbar)/(1 + |z|^2), the first sphere coordinate."""
    return ObservableFn(terms=((1.0, 1, 0, 1), (1.0, 0, 1, 1)))


def dzbar_observable(f):
    """d f/d zbar: z^a zbar^b (1+zz)^{-c} gives b z^a zbar^{b-1} (1+zz)^{-c}
    - c z^{a+1} zbar^b (1+zz)^{-c-1}."""
    terms = []
    for coeff, a, b, c in f.terms:
        if b:
            terms.append((coeff * b, a, b - 1, c))
        if c:
            terms.append((-coeff * c, a + 1, b, c + 1))
    return ObservableFn(terms=tuple(terms))


# ---------------------------------------------------------------------------
# sphere: holomorphic sections and the quadrature grid

def section_matrix(ctx, z):
    """S[l, node]: the unit-norm monomial section z^l of level m in the unit
    frame, z^l (1+|z|^2)^{-m/2} sqrt((m+1) C(m, l) / (2 pi)), from the
    closed-form norm 2 pi l!(m-l)!/(m+1)!, written as u^l v^{m-l} with u =
    z/sqrt(1+|z|^2) and v = 1/sqrt(1+|z|^2) so that no power overflows."""
    m = ctx.m
    z = np.asarray(z, dtype=complex)
    v = 1.0 / np.sqrt(1.0 + (z * z.conjugate()).real)
    u = z * v
    return np.array([u ** l * v ** (m - l)
                     * math.sqrt((m + 1) * math.comb(m, l) / TWO_PI)
                     for l in range(m + 1)])

class QuadratureTolerance(ArithmeticError):
    """Grid refinement changed the result by more than the tolerance."""


def _build_grid(K):
    """Gauss-Legendre in cos(theta) times uniform azimuth, K x K nodes:
    flattened chart points z and weights w summing to 2 pi (the volume)."""
    c, w_c = np.polynomial.legendre.leggauss(K)
    phi = TWO_PI * (np.arange(K) + 0.5) / K
    C, PHI = np.meshgrid(c, phi, indexing="ij")
    T = (1 - C) / (1 + C)
    Z = np.sqrt(T) * np.exp(1j * PHI)
    W = np.outer(w_c * 0.5, np.full(K, TWO_PI / K))
    return Z.ravel(), W.ravel()


def _grid_side(ctx):
    """Side K of the K x K quadrature grid of a level-m context."""
    return 2 * (ctx.m + 3)


def _coherent_grid(ctx):
    """Quadrature nodes z and weights w of the context's grid, the coherent
    vectors E (one column per node) and their squared norms u."""
    z, w = _build_grid(_grid_side(ctx))
    E = np.conjugate(section_matrix(ctx, z))
    u = np.sum((E * np.conjugate(E)).real, axis=0)
    return z, w, E, u


# ---------------------------------------------------------------------------
# sphere: coherent states, trace and symbols

def epsilon_function(z0, ctx):
    """Rawnsley density; equals (m+1)/(2 pi) everywhere on the sphere."""
    e = coherent_vector(z0, ctx)
    u = np.vdot(e, e).real
    # pointwise metric density of the coherent section at its own point
    S = section_matrix(ctx, np.asarray([z0], dtype=complex))[:, 0]
    hval = abs(np.dot(e, S)) ** 2 / u
    return float(hval)


def integral_exact(f):
    """Exact rational evaluation of the volume integral of a symbol-class f
    (divided by nothing; total measure 2 pi)."""
    out = 0.0
    for coeff, a, b, c in f.terms:
        if a != b:
            continue
        out += coeff * TWO_PI * float(
            Fraction(math.factorial(a) * math.factorial(c - a),
                     math.factorial(c + 1)))
    return out


def trace_identity(f, ctx):
    lhs = complex(np.trace(toeplitz_matrix(f, ctx)))
    rhs = (ctx.dim / TWO_PI) * integral_exact(f)
    return lhs, rhs, abs(lhs - rhs)


def adjointness_check(A, f, ctx):
    """|Tr(A^dag T_f) - integral of conj(symbol(A)) f against the epsilon
    measure|, the symbol integral by quadrature."""
    lhs = complex(np.trace(A.conj().T @ toeplitz_matrix(f, ctx)))
    z, w, E, u = _coherent_grid(ctx)
    sigma = np.einsum("in,ij,jn->n", np.conjugate(E), A, E) / u
    fv = np.asarray(f(z), dtype=complex)
    eps = ctx.dim / TWO_PI
    rhs = np.sum(np.conjugate(sigma) * fv * eps * w)
    return abs(lhs - rhs)


def contravariant_reconstruct(f, ctx):
    """Norm defect of rebuilding T_f from coherent projectors weighted by f."""
    z, w, E, u = _coherent_grid(ctx)
    fv = np.asarray(f(z), dtype=complex)
    eps = ctx.dim / TWO_PI
    weights = fv * eps * w / u
    B = (E * weights) @ E.conj().T
    return operator_norm(B - toeplitz_matrix(f, ctx))


def twisted_product(f, g, z0, ctx):
    """Covariant symbol of T_f T_g at z0."""
    return covariant_symbol(toeplitz_matrix(f, ctx) @ toeplitz_matrix(g, ctx),
                            z0, ctx)


def surjectivity_rank(ctx):
    """Rank of the span of Toeplitz matrices of the (m+1)^2 basis symbols."""
    m = ctx.m
    if m > 8:
        raise ResourceGuard("surjectivity scan limited to m <= 8")
    rows = []
    for a in range(m + 1):
        for b in range(m + 1):
            f = ObservableFn(terms=((1.0, a, b, max(a, b)),))
            rows.append(toeplitz_matrix(f, ctx).ravel())
    return int(np.linalg.matrix_rank(np.array(rows), tol=1e-9))


def is_real(h):
    """Whether the observable h is real: each term's conjugate, with a and b
    exchanged, is a term of h, up to numpy's isclose."""
    lookup = {(a, b, c): coeff for coeff, a, b, c in h.terms}
    for coeff, a, b, c in h.terms:
        if not np.isclose(lookup.get((b, a, c), 0), coeff.conjugate()):
            return False
    return True


# ---------------------------------------------------------------------------
# sphere: geometric quantization

def geometric_quantization(f, ctx):
    """Matrix of compress(covariant derivative along the Hamiltonian field
    plus i f) in the orthonormal basis, by quadrature on the context's
    K x K grid; raises QuadratureTolerance when the K + 8 grid moves an
    entry by more than 1e-8."""
    m = ctx.m

    def assemble(grid_nodes):
        z, w = _build_grid(grid_nodes)
        t = (z * z.conjugate()).real
        s = 1.0 / (1.0 + t)
        S = section_matrix(ctx, z)
        fzbar = dzbar_observable(f)(z)
        Xz = 1j * fzbar / (s * s) / (2 * m)
        fv = np.asarray(f(z), dtype=complex)
        G = np.empty_like(S)
        for k in range(m + 1):
            lower = S[k - 1] * math.sqrt((m - k + 1) / k) if k else 0.0
            G[k] = Xz * (k * lower - m * np.conjugate(z) * s * S[k]) \
                + 1j * fv * S[k]
        return np.conjugate(S) @ (G * w).T

    K = _grid_side(ctx)
    Q1 = assemble(K)
    Q2 = assemble(K + 8)
    if np.max(np.abs(Q1 - Q2)) > 1e-8:
        raise QuadratureTolerance(
            "quantization entries changed by more than 1e-8 under refinement")
    return Q2


def tuynman_defect(f, ctx):
    """Norm of Q_f - i T_{f - Delta f/(2m)}; zero up to quadrature error."""
    Q = geometric_quantization(f, ctx)
    corrected = f + laplacian_fn(f).scale(-1.0 / (2 * ctx.m))
    return operator_norm(Q - 1j * toeplitz_matrix(corrected, ctx))


# ---------------------------------------------------------------------------
# jets: monomials, conjugates, multi-indices, Laplacian and Poisson bracket

def jet_monomial(holo, anti, n, max_degree, coeff=ONE):
    if not isinstance(coeff, Scalar):
        coeff = Scalar(coeff)
    return Jet(n, max_degree, {(holo, anti): coeff})


def jet_conj(f):
    """The complex conjugate of f: each coefficient conjugated, its holo and
    anti exponents exchanged."""
    return Jet(f.n, f.max_degree, {(anti, holo): Scalar(c.re, -c.im)
                                   for (holo, anti), c in f.terms.items()})


def mi_range(n, max_deg):
    """All multi-indices of length n with total degree <= max_deg, graded lex."""
    out = []
    for d in range(max_deg + 1):
        tier = []

        def rec_exact(prefix, remaining):
            if len(prefix) == n - 1:
                tier.append(tuple(prefix) + (remaining,))
                return
            for v in range(remaining + 1):
                rec_exact(prefix + [v], remaining - v)

        rec_exact([], d)
        out.extend(sorted(tier))
    return out


def laplacian(f, g_inv):
    """Sum_ij g_inv[j][i] d2 f / dz_i dzbar_j: g_inv[j][i] pairs dzbar_j
    with dz_i, as in poisson_bracket."""
    n = f.n
    out = Jet.zero(n, f.max_degree)
    for i in range(n):
        for j in range(n):
            out = out + g_inv[j][i] * f.diff(i, "holo").diff(j, "anti")
    return out


def poisson_bracket(f, g, g_inv):
    """{f,g} = i sum g^{ij} (df/dzbar_i dg/dz_j - df/dz_j dg/dzbar_i)."""
    n = f.n
    out = Jet.zero(n, f.max_degree)
    for i in range(n):
        for j in range(n):
            term = (f.diff(i, "anti") * g.diff(j, "holo")
                    - f.diff(j, "holo") * g.diff(i, "anti"))
            out = out + g_inv[i][j] * term
    return out.scale(Scalar(0, 1))


# ---------------------------------------------------------------------------
# formal: applied operators, multiplication operators, polarization, opposite
# and dual products

def apply_op(op, f):
    """The DiffOp op applied to the jet f."""
    out = Jet.zero(op.n, op.D)
    for coeff, d in op.terms:
        out = out + coeff * f.diff_multi(d)
    return out


def mult_op(jet):
    """The multiplication by a jet, as a DiffOp."""
    return DiffOp(jet.n, jet.max_degree, [(jet, mi_zero(2 * jet.n))])


def polarize(I_k, k):
    """Rebuild C_k from I_k: anti derivatives go to the first argument,
    holomorphic derivatives to the second, coefficients carried over."""
    n, D = I_k.n, I_k.D
    z = mi_zero(n)
    C_k = BiDiffOp(n, D, [(c, z + d[n:], d[:n] + z) for c, d in I_k.terms])
    f_holo, f_anti, g_holo, g_anti = C_k.max_orders()
    if f_holo or g_anti or f_anti > k or g_holo > k:
        raise OrderViolation(f"I_{k} has a term of order above ({k},{k})")
    return C_k


def opposite_star(t):
    C_out = [c.swap() for c in t.C]
    conv = detect_convention(C_out)
    return StarTable(C=C_out, convention=conv,
                     label=t.label + "|opposite" if t.label else "opposite")


def dual_star(t, I):
    """f *~ g = I^{-1}(I(g) * I(f))."""
    return conjugate_star(opposite_star(t), I)


def ops_agree(A, B, up_to=None):
    """Whether every coefficient jet of A_k - B_k, k = 0..N, vanishes through
    total degree up_to (default D - N) for two nu-series of DiffOps, tuples
    (A_0, ..., A_N).  Series of different N, n or D do not agree."""
    if len(A) != len(B) or (A[0].n, A[0].D) != (B[0].n, B[0].D):
        return False
    up_to = A[0].D - (len(A) - 1) if up_to is None else up_to
    return all((a - b).drop_above(up_to).is_zero() for a, b in zip(A, B))


# ---------------------------------------------------------------------------
# karabegov: a dense potential and the Berezin-Toeplitz table by conjugation

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
    g_inv = inverse_metric(P.phi_minus1)
    R = -laplacian(jet_det(hessian(P.phi_minus1)).log(), g_inv)
    phi = [Jet.zero(P.n, P.D), R.scale(Fraction(1, 2))]
    if N >= 4:
        assert P.n == 1, "b_2 is known here for n = 1 only"
        phi.append(laplacian(R, g_inv).scale(Fraction(1, 3))
                   - (R * R).scale(Fraction(1, 8)))
    return FormalPotential(phi_minus1=P.phi_minus1, phi=phi)


def conjugation_route(P, N):
    """The BT table f * g = I^{-1}(I f *_B I g), by conjugating the Berezin
    product *_B with its transform I, cut as bt_star_from cuts."""
    t = karabegov_star(berezin_potential(P, N), N)
    cut = P.D - (3 * N + 2)
    return [op.drop_above(cut)
            for op in conjugate_star(t, transform_from_star(t)).C]


# ---------------------------------------------------------------------------
# graphs: largest coefficient, Moyal product and products of series

def moyal_star(mat, f, g, N):
    """Closed-form exponential product for a constant bivector matrix."""
    d = len(mat)
    out = [f * g]
    prev = [(f, g)]
    fact = 1
    for n in range(1, N + 1):
        nxt = []
        for (pf, pg) in prev:
            for i in range(d):
                for j in range(d):
                    if mat[i][j] == 0:
                        continue
                    nxt.append((pf.diff(i) * mat[i][j], pg.diff(j)))
        # regroup: represent sum of tensor terms
        prev = [(pf, pg) for pf, pg in nxt]
        fact *= n
        acc = Poly(d, {})
        for pf, pg in prev:
            acc = acc + pf * pg
        out.append(acc * ((0.5j) ** n / fact))
    return out


def max_abs_coeff(p):
    """The largest coefficient modulus of the graph polynomial p, 0.0 if it
    has none."""
    return max((abs(v) for v in p.coeffs.values()), default=0.0)


def star_poly_series(a, fs, gs, N, cfg=None):
    """Product of two nu-polynomial series under the graph star product."""
    out = [Poly(a.d, {}) for _ in range(N + 1)]
    for i, f in enumerate(fs):
        for j, g in enumerate(gs):
            if i + j > N:
                continue
            prod = kontsevich_star(a, f, g, N - i - j, cfg)
            for k, p in enumerate(prod):
                out[i + j + k] = out[i + j + k] + p
    return out


if __name__ == "__main__":
    from starq.karabegov import bt_star_from
    P = dense_potential(18)
    assert bt_star_from(P, 4).C == conjugation_route(P, 4)
