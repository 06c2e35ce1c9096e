"""Separation-of-variables star products from a formal Kaehler potential.

The anti-Wick table's operators A_k(f, g) = C_k(f, g) are solved order by
order in nu from the requirement that, for every f, the left multiplication
operator L_f = sum nu^k A_k(f, .) commutes with the right multiplication
operators R_l = dPhi/dzbar_l + d/dzbar_l.  Multiplied through by nu, the
commutation equation at order nu^m gives, with f as a spectator, for the
coefficients x_{alpha,b} of dbar^b f d^alpha g with |alpha| = s, one block
of rows (l, beta), |beta| = s - 1, for each b:

    sum_j g_jl (beta_j + 1) x_{beta+e_j,b} = v_{l,beta,b},

with g = d dbar Phi_{-1} the metric and v the lower orders and the solved
blocks |alpha| > s.  Blocks are solved from s = m down.  The jet inverse
g^{-1} = adj(g) / det g turns each block into
(beta_j + 1) x_{beta+e_j,b} = sum_l g^{-1}_lj v_{l,beta,b}, so x_{alpha,b}
can be read off along every j with alpha_j > 0; the routes must agree,
which is the consistency (null-row) check of the overdetermined block.
left_mult_operator is the table contracted with g, after checking that the
table's operators commute with every nu R_l; karabegov_star runs no such
check.  load_potential reads the --potential of the star-* commands: a
reference potential by name, or a potential JSON file.
"""

import json
from fractions import Fraction

from . import ValidationError
from .jets import (
    Jet, hessian, jet_det, jet_from_json, metric_from_potential, mi_binom,
    mi_deg, mi_le, mi_range, mi_sub, mi_zero, unit_mi,
)
from .formal import BiDiffOp, BudgetExceeded, DiffOp, NuDiffOp, StarTable


class FormalPotential:
    __slots__ = ("phi_minus1", "phi")

    def __init__(self, phi_minus1, phi=None):
        self.phi_minus1 = phi_minus1
        self.phi = [] if phi is None else phi   # Phi_0, Phi_1, ... as Jets

    @property
    def n(self):
        return self.phi_minus1.n

    @property
    def D(self):
        return self.phi_minus1.max_degree

    def phi_k(self, k):
        """Phi_k for k >= 0, zero jet when absent."""
        if 0 <= k < len(self.phi):
            return self.phi[k]
        return Jet.zero(self.n, self.D)


# ---------------------------------------------------------------------------
# reference potentials

def flat_potential(D, n=1, weights=None):
    """Phi = sum w_i z_i zbar_i (weights default to 1)."""
    weights = weights or [1] * n
    phi = Jet.zero(n, D)
    for i, w in enumerate(weights):
        phi = phi + (Jet.variable(i, n, D) * Jet.variable(i, n, D, "anti")).scale(w)
    return FormalPotential(phi_minus1=phi)


def fs_potential(D):
    """Phi = log(1 + z zbar) truncated at D (n = 1)."""
    t = Jet.variable(0, 1, D) * Jet.variable(0, 1, D, "anti")
    out = Jet.zero(1, D)
    power = Jet.constant(1, 1, D)
    for j in range(1, D // 2 + 1):
        power = power * t
        out = out + power.scale(Fraction((-1) ** (j + 1), j))
    return FormalPotential(phi_minus1=out)


def reference_potentials(D):
    return {
        "flat": flat_potential(D),
        "fs": fs_potential(D),
        "aniso": flat_potential(D, n=2, weights=[1, 2]),
    }


def load_potential(name, D):
    """The reference potential of that name at degree budget D, or else the
    potential of the JSON file at path name: {"phi_minus1": jet, "phi":
    [jet, ...]}, every phi jet matching phi_minus1 in n and max_degree."""
    named = reference_potentials(D)
    if name in named:
        return named[name]
    with open(name) as fh:
        obj = json.load(fh)
    try:
        phi_minus1 = jet_from_json(obj["phi_minus1"])
        phi = [jet_from_json(j) for j in obj.get("phi", [])]
        for jet in phi:
            if (jet.n, jet.max_degree) != (phi_minus1.n, phi_minus1.max_degree):
                raise ValueError("every 'phi' jet must match 'phi_minus1' in "
                                 "n and max_degree")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"potential file {name} has no "
                              f"well-formed jets: {exc!r}") from exc
    return FormalPotential(phi_minus1=phi_minus1, phi=phi)


# ---------------------------------------------------------------------------
# the table's operators

def left_mult_operator(g_series, P, N):
    """L_g for a nu-series g (list of Jets), as a NuDiffOp through nu^N: the
    table's operators, checked by _verify_commutation, contracted with g.
    Order m is g_m + sum_{k>=1} sum (c dbar^b g_{m-k}) d^alpha over the terms
    c dbar^b f d^alpha g of A_k, each cut at D - (m + 2)."""
    A, rho = _anti_wick_ops(P, N)
    _verify_commutation(A, rho)
    n, D = P.n, P.D
    z = mi_zero(n)
    gs = list(g_series) + [Jet.zero(n, D)] * (N + 1 - len(g_series))
    orders = []
    for m in range(N + 1):
        terms = [(gs[m], z, z)]
        for k in range(1, m + 1):
            terms += [((c * gs[m - k].diff_multi(z, b)).drop_above(D - (m + 2)),
                       alpha, z) for c, _, b, alpha, _ in A[k].terms]
        orders.append(DiffOp(n, D, terms))
    return NuDiffOp(n, D, N, orders)


def _anti_wick_ops(P, N):
    """The anti-Wick table's operators A_0..A_N, A_k(f, g) = C_k(f, g), each
    A_m kept through degree D - (m + 2), with the operators rho they commute
    with.

    The right-multiplication data, graded after multiplying through by nu,
    nu R_l = w_{-1,l} + nu (w_{0,l} + d/dzbar_l) + nu^2 w_{1,l} + ..., and
    g^{-1} depend on P and N alone; rho[j][l] is the nu^j part of nu R_l as
    an operator on g.  No commutation check runs here."""
    n, D = P.n, P.D
    if D < 3 * N:
        raise BudgetExceeded(f"degree budget D={D} below 3N={3 * N}")
    z = mi_zero(n)
    w_lead = [P.phi_minus1.diff(l, "anti") for l in range(n)]
    g_inv = metric_from_potential(P.phi_minus1).g_inv

    def rho_op(j, l):
        if j == 0:
            return DiffOp.mult(w_lead[l])
        op = DiffOp.mult(P.phi_k(j - 1).diff(l, "anti"))
        if j == 1:
            op = op + DiffOp.deriv(n, D, z, unit_mi(n, l))
        return op

    rho = [[rho_op(j, l) for l in range(n)] for j in range(N + 1)]

    A = [BiDiffOp.pointwise(n, D)]
    for m in range(1, N + 1):
        # order m is reliable through degree D - (m + 2), the window of the
        # j-route check; no term above it reaches a reported term
        cut = D - (m + 2)
        # RHS of [A_m, w_{-1,l} .] = -sum_{k<m} [A_k, rho_{m-k,l}], keyed by
        # (d^beta on g, dbar^b on f)
        rhs = []
        for l in range(n):
            row = {}
            for c, _, b, beta, ga in (-_commutator_sum(A, rho, m, l)).terms:
                if mi_deg(ga) > 0:
                    raise ArithmeticError(
                        "recursion right-hand side is not holomorphic")
                row[beta, b] = c.drop_above(cut)
            rhs.append(row)
        terms = []
        for b in dict.fromkeys(b for row in rhs for _, b in row):
            coeffs = {}
            for s in range(m, 0, -1):
                # u_{j,beta} = sum_l g^{-1}_lj v_{l,beta,b}
                # = (beta_j + 1) x_{beta+e_j,b} for the block |alpha| = s
                # (module docstring)
                u = {}
                for beta in mi_range(n, s - 1):
                    if mi_deg(beta) < s - 1:
                        continue
                    v = []
                    for l in range(n):
                        val = rhs[l].get((beta, b), Jet.zero(n, D))
                        # coeffs holds the solved blocks |alpha| > s
                        for alpha, c in coeffs.items():
                            if not mi_le(beta, alpha):
                                continue
                            gamma = mi_sub(alpha, beta)
                            dw = w_lead[l].diff_multi(gamma, z)
                            val = val - (c * dw).scale(mi_binom(alpha, gamma))
                        v.append(val)
                    for j in range(n):
                        acc = Jet.zero(n, D)
                        for l in range(n):
                            acc = acc + g_inv[l][j] * v[l]
                        u[j, beta] = acc
                # x_{alpha,b} along the first j with alpha_j > 0; every other
                # j-route must give the same value on the reliable window
                for alpha in mi_range(n, s):
                    if mi_deg(alpha) < s:
                        continue
                    x, *others = [u[j, mi_sub(alpha, unit_mi(n, j))]
                                  .drop_above(cut).scale(Fraction(1, alpha[j]))
                                  for j in range(n) if alpha[j]]
                    for y in others:
                        if not (y - x).is_zero():
                            raise ArithmeticError(
                                "inconsistent block in the recursion")
                    if not x.is_zero():
                        coeffs[alpha] = x
            terms += [(c, z, b, alpha, z) for alpha, c in coeffs.items()]
        A.append(BiDiffOp(n, D, terms))
    return A, rho


def _verify_commutation(A, rho):
    """Residual check: [A, nu R_l] vanishes through nu^N for the operators
    A_0..A_N of _anti_wick_ops, on the reliable degree window
    D - (2N + 2) (exact for polynomial potentials).  A budget below 2N + 2
    leaves no window to check and raises BudgetExceeded."""
    n, D, N = A[0].n, A[0].D, len(A) - 1
    window = D - (2 * N + 2)
    if window < 0:
        raise BudgetExceeded(f"degree budget D={D} below 2N+2={2 * N + 2}: "
                             f"no window to check commutation on")
    for l in range(n):
        for m in range(N + 1):
            for tm in _commutator_sum(A[:m + 1], rho, m, l).terms:
                if not tm[0].truncate(window).is_zero():
                    raise ArithmeticError(
                        f"left multiplication operator fails commutation at nu^{m}")


def _commutator_sum(A, rho, m, l):
    """sum_k [A_k, rho_{m-k,l}] over the operators A_0, A_1, ... of A, with
    [A, r](f, g) = A(f, r g) - r(A(f, g))."""
    n, D = A[0].n, A[0].D
    ident = DiffOp.identity(n, D)
    acc = BiDiffOp.zero(n, D)
    for k, a in enumerate(A):
        r = rho[m - k][l]
        acc = acc + (a.precompose(ident, r) - a.postcompose(r))
    return acc


# ---------------------------------------------------------------------------
# star product assembly

def _drop_above(op, degree):
    """The BiDiffOp op with each coefficient cut at the degree."""
    return BiDiffOp(op.n, op.D, [(tm[0].drop_above(degree),) + tm[1:]
                                 for tm in op.terms])


def karabegov_star(P, N):
    """Anti-Wick star table through nu^N from a formal potential: the
    operators of _anti_wick_ops, C_k for k >= 1 cut at D - (N + 2)."""
    A, _ = _anti_wick_ops(P, N)
    C = A[:1] + [_drop_above(op, P.D - (N + 2)) for op in A[1:]]
    t = StarTable(N=N, C=C, convention="karabegov_anti_wick",
                  label="karabegov")
    t.check_convention()
    return t


def bt_star_from(P, N):
    """Berezin-Toeplitz star table through nu^N, Wick type.

    The Berezin-Toeplitz product is the separation-of-variables product with
    z and zbar switched whose Karabegov form is -(1/nu) omega + omega_can,
    omega_can = i d dbar log det g (Karabegov-Schlichenmaier).  It depends on
    omega alone, so a potential with a nonzero Phi_k entry raises ValueError.
    With P' = (Phi_{-1}, Phi'_0 = log det g), C_k = (-1)^k swap(C'_k) for the
    anti-Wick table C' of P'.  The constant of the log is dropped, since only
    derivatives of Phi'_0 enter the recursion.

    Each coefficient is cut at degree D - (3N + 2): conjugating the Berezin
    product by its transform composes up to 2N derivatives of coefficients
    reliable through D - (N + 2), so this is the window on which the table
    and that conjugation agree term for term.  A budget below 3N + 2 leaves
    no degree and raises BudgetExceeded.
    """
    if any(not phi.is_zero() for phi in P.phi):
        raise ValueError("the Berezin-Toeplitz product depends on omega "
                         "alone; the potential has a nonzero Phi_k entry")
    cut = P.D - (3 * N + 2)
    if cut < 0:
        raise BudgetExceeded(f"degree budget D={P.D} below 3N+2={3 * N + 2}")
    log_det = jet_det(hessian(P.phi_minus1)).log()
    t = karabegov_star(FormalPotential(phi_minus1=P.phi_minus1,
                                       phi=[log_det]), N)
    ops = [op.swap() if k % 2 == 0 else -op.swap() for k, op in enumerate(t.C)]
    C = [_drop_above(op, cut) for op in ops]
    bt = StarTable(N=N, C=C, convention="wick", label="berezin-toeplitz")
    bt.check_convention()
    return bt
