"""Separation-of-variables star products from a formal Kaehler potential.

The left multiplication operator L_g is solved order by order in nu from the
requirement that it commutes with the right multiplication operators
R_l = dPhi/dzbar_l + d/dzbar_l.  Multiplied through by nu, the commutation
equation at order nu^m gives, for the coefficients x_alpha of d^alpha/dz^alpha
with |alpha| = s, one block of rows (l, beta), |beta| = s - 1:

    sum_j g_jl (beta_j + 1) x_{beta+e_j} = v_{l,beta},

with g = d dbar Phi_{-1} the metric and v the lower orders and the solved
blocks |alpha| > s.  Blocks are solved from s = m down.  The jet inverse
g^{-1} = adj(g) / det g turns each block into
(beta_j + 1) x_{beta+e_j} = sum_l g^{-1}_lj v_{l,beta}, so x_alpha can be read
off along every j with alpha_j > 0; the routes must agree, which is the
consistency (null-row) check of the overdetermined block.
left_mult_operator also checks that L_g commutes with every nu R_l;
karabegov_star solves its columns through the same builder without that
check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .jets import (
    Jet, hessian, jet_det, metric_from_potential, mi_binom, mi_deg,
    mi_falling, mi_fact, mi_le, mi_range, mi_sub, mi_zero, unit_mi,
)
from .formal import BiDiffOp, BudgetExceeded, DiffOp, NuDiffOp, StarTable


@dataclass
class FormalPotential:
    phi_minus1: Jet
    phi: list = field(default_factory=list)   # Phi_0, Phi_1, ... as Jets

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


# ---------------------------------------------------------------------------
# left multiplication operator

def left_mult_operator(g_series, P, N):
    """L_g for a nu-series g (list of Jets), as a NuDiffOp through nu^N,
    checked by _verify_commutation."""
    build, rho = _left_mult_builder(P, N)
    L = build(g_series)
    _verify_commutation(L, rho)
    return L


def _left_mult_builder(P, N):
    """L_g as a function of g_series for one potential and order, with the
    operators rho it commutes with.

    The right-multiplication data, graded after multiplying through by nu,
    nu R_l = w_{-1,l} + nu (w_{0,l} + d/dzbar_l) + nu^2 w_{1,l} + ..., and
    g^{-1} depend on P and N alone, so they are built once, here, for every
    g of a star table; rho[j][l] is the nu^j part of nu R_l as an operator.
    The builder runs no commutation check."""
    n, D = P.n, P.D
    if D < 3 * N:
        raise BudgetExceeded(f"degree budget D={D} below 3N={3 * N}")
    w_lead = [P.phi_minus1.diff(l, "anti") for l in range(n)]
    g_inv = metric_from_potential(P.phi_minus1).g_inv

    def rho_op(j, l):
        if j == 0:
            return DiffOp.mult(w_lead[l])
        op = DiffOp.mult(P.phi_k(j - 1).diff(l, "anti"))
        if j == 1:
            op = op + DiffOp.deriv(n, D, mi_zero(n), unit_mi(n, l))
        return op

    rho = [[rho_op(j, l) for l in range(n)] for j in range(N + 1)]

    def build(g_series):
        if isinstance(g_series, Jet):
            g_series = [g_series]
        gs = list(g_series) + [Jet.zero(n, D)] * (N + 1 - len(g_series))
        A = [DiffOp.mult(gs[0])]
        for m in range(1, N + 1):
            # RHS of [B_m, w_{-1,l} .] = -sum_{k<m} [A_k, rho_{m-k,l}]
            rhs_ops = []
            for l in range(n):
                acc = DiffOp.zero(n, D)
                for k in range(m):
                    r = rho[m - k][l]
                    acc = acc + (A[k].compose(r) - r.compose(A[k]))
                acc = -acc
                for _, h, a in acc.terms:
                    if mi_deg(a) > 0:
                        raise ArithmeticError(
                            "recursion right-hand side is not holomorphic")
                rhs_ops.append({h: c for c, h, a_ in acc.terms})
            coeffs = {}
            for s in range(m, 0, -1):
                # u_{j,beta} = sum_l g^{-1}_lj v_{l,beta}
                # = (beta_j + 1) x_{beta+e_j} for the block |alpha| = s
                # (module docstring)
                u = {}
                for beta in mi_range(n, s - 1):
                    if mi_deg(beta) < s - 1:
                        continue
                    v = []
                    for l in range(n):
                        val = rhs_ops[l].get(beta, Jet.zero(n, D))
                        for alpha, c in coeffs.items():
                            gamma = mi_sub(alpha, beta)
                            if mi_deg(alpha) <= s or not mi_le(beta, alpha):
                                continue
                            dw = w_lead[l].diff_multi(gamma, mi_zero(n))
                            val = val - (c * dw).scale(mi_binom(alpha, gamma))
                        v.append(val)
                    for j in range(n):
                        acc = Jet.zero(n, D)
                        for l in range(n):
                            acc = acc + g_inv[l][j] * v[l]
                        u[j, beta] = acc
                # x_alpha along the first j with alpha_j > 0; every other
                # j-route must give the same x_alpha on the reliable window
                for alpha in mi_range(n, s):
                    if mi_deg(alpha) < s:
                        continue
                    x, *others = [u[j, mi_sub(alpha, unit_mi(n, j))].scale(
                        Fraction(1, alpha[j])) for j in range(n) if alpha[j]]
                    for y in others:
                        if not (y - x).truncate(D - (m + 2)).is_zero():
                            raise ArithmeticError(
                                "inconsistent block in the recursion")
                    if not x.is_zero():
                        coeffs[alpha] = x
            B_m = DiffOp(n, D, [(c, alpha, mi_zero(n))
                                for alpha, c in coeffs.items()])
            A.append(DiffOp.mult(gs[m]) + B_m)

        return NuDiffOp(n, D, N, A)

    return build, rho


def _verify_commutation(L, rho):
    """Residual check: [L, nu R_l] vanishes through nu^N on the reliable
    degree window (exact for polynomial potentials)."""
    n, D, N = L.n, L.D, L.N
    window = D - (2 * N + 2)
    if window < 0:
        return
    for l in range(n):
        for m in range(N + 1):
            acc = DiffOp.zero(n, D)
            for k in range(m + 1):
                r = rho[m - k][l]
                acc = acc + (L.orders[k].compose(r) - r.compose(L.orders[k]))
            for c, h, a in acc.terms:
                if not c.truncate(window).is_zero():
                    raise ArithmeticError(
                        f"left multiplication operator fails commutation at nu^{m}")


# ---------------------------------------------------------------------------
# star product assembly

def karabegov_star(P, N):
    """Anti-Wick star table through nu^N from a formal potential."""
    n, D = P.n, P.D
    cut = D - (N + 2)
    left_mult, _ = _left_mult_builder(P, N)
    Ls = {}
    for beta in mi_range(n, N):
        f = Jet.monomial(mi_zero(n), beta, n, D)
        Ls[beta] = left_mult([f])

    C = [BiDiffOp.pointwise(n, D)]
    for k in range(1, N + 1):
        # B_k for f = zbar^beta' determines a^k_{alpha,beta} triangularly
        a_coeffs = {}
        for beta_p in mi_range(n, k):
            bmap = {}
            for c, h, a in Ls[beta_p].orders[k].terms:
                bmap[h] = c
            seen_alphas = set(bmap) | {al for (al, _) in a_coeffs}
            for alpha in seen_alphas:
                val = bmap.get(alpha, Jet.zero(n, D))
                for (al, beta), acf in list(a_coeffs.items()):
                    if al != alpha or not mi_le(beta, beta_p) or beta == beta_p:
                        continue
                    mono = Jet.monomial(mi_zero(n), mi_sub(beta_p, beta), n, D,
                                        mi_falling(beta_p, beta))
                    val = val - acf * mono
                val = val.scale(Fraction(1, mi_fact(beta_p)))
                if not val.is_zero():
                    a_coeffs[(alpha, beta_p)] = val
        terms = []
        for (alpha, beta), c in a_coeffs.items():
            c_cut = c.drop_above(cut)
            if not c_cut.is_zero():
                terms.append((c_cut, mi_zero(n), beta, alpha, mi_zero(n)))
        C.append(BiDiffOp(n, D, terms))
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
    C = [BiDiffOp(P.n, P.D, [(tm[0].drop_above(cut),) + tm[1:]
                             for tm in op.terms]) for op in ops]
    bt = StarTable(N=N, C=C, convention="wick", label="berezin-toeplitz")
    bt.check_convention()
    return bt
