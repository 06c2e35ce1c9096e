"""Separation-of-variables star products from a formal Kaehler potential.

The anti-Wick table's operators A_k(f, g) = C_k(f, g) are solved order by
order in nu from the requirement that, for every f, the left multiplication
operator L_f = sum nu^k A_k(f, .) commutes with the right multiplication
operators R_l = dPhi/dzbar_l + d/dzbar_l.  Multiplied through by nu,
nu R_l = sum_j nu^j rho_{j,l} with rho_{j,l} the multiplication by
w[j][l] = dPhi_{j-1}/dzbar_l, plus d/dzbar_l for j = 1, and the equation
at order nu^m is

    [A_m, w[0][l]] = -sum_{k<m} [A_k, rho_{m-k,l}],

each commutator in closed form by Leibniz.  With f as a spectator, the
coefficients x_{alpha,b} of dbar^b f d^alpha g with |alpha| = s enter the
rows (l, b, beta), |beta| = s - 1, of the left side as
sum_j g_jl (beta_j + 1) x_{beta+e_j,b}, with g = d dbar Phi_{-1} the
metric, and lower rows through higher derivatives of w[0][l].  So order m
is one back-substitution on the residual of its equation, which starts as
the right side's negative: for s = m down to 1, the jet inverse
g^{-1} = adj(g) / det g reads (beta_j + 1) x_{beta+e_j,b} =
-sum_l g^{-1}_lj r_{l,b,beta} off the residual rows r along the first j
with alpha_j > 0, and the block's commutator joins the residual.  The
residual is then the whole commutator at order nu^m, and it must vanish
through D - (m + 2), the degree order m is reliable through: that checks
the other j-routes of each overdetermined block and every row no block
solves, so every table carries its commutation certificate.
left_mult_operator is the table contracted with g, as the tuple
(L_0, ..., L_N) of its DiffOps by nu power.  Each StarTable checks its own
separation of variables when it is built, so no builder repeats that check.
load_potential reads the --potential of the star-* commands: a reference
potential by name, or a potential JSON file.
"""

import json
from fractions import Fraction

from . import ValidationError
from .jets import (
    Jet, hessian, inverse_metric, jet_from_json, metric_det, metric_inverse,
    mi_add, mi_splits, mi_zero, unit_mi,
)
from .formal import BiDiffOp, BudgetExceeded, DiffOp, StarTable


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
    return FormalPotential(phi_minus1=(Jet.constant(1, 1, D) + t).log())


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
    """L_g for a nu-series g (list of Jets), as the tuple (L_0, ..., L_N) of
    DiffOps by nu power: the table's operators, which the recursion has
    checked to commute with every nu R_l, contracted with g.  Order m is
    g_m + sum_{k>=1} sum (c dbar^b g_{m-k}) d^alpha over the terms
    c dbar^b f d^alpha g of A_k, each cut at D - (m + 2)."""
    A = _anti_wick_ops(P, N, inverse_metric(P.phi_minus1))
    n, D = P.n, P.D
    gs = list(g_series) + [Jet.zero(n, D)] * (N + 1 - len(g_series))
    orders = []
    for m in range(N + 1):
        terms = [(gs[m], mi_zero(2 * n))]
        for k in range(1, m + 1):
            # an anti-Wick term differentiates f by (0, b) and g by (alpha, 0)
            terms += [((c * gs[m - k].diff_multi(df)).drop_above(D - (m + 2)),
                       dg) for c, df, dg in A[k].terms]
        orders.append(DiffOp(n, D, terms))
    return tuple(orders)


def _anti_wick_ops(P, N, g_inv):
    """The anti-Wick table's operators A_0..A_N, A_k(f, g) = C_k(f, g), each
    A_m kept through degree D - (m + 2), for g_inv the inverse metric of
    Phi_{-1}.  They commute with every nu R_l, whose multipliers are
    w[j][l] = dPhi_{j-1}/dzbar_l, the nu^j part of nu R_l besides the
    d/dzbar_l of nu^1.
    Order m, solved by back-substitution on the residual of its equation
    (module docstring), raises ArithmeticError unless that residual
    vanishes through D - (m + 2)."""
    n, D = P.n, P.D
    if D < 3 * N:
        raise BudgetExceeded(f"degree budget D={D} below 3N={3 * N}")
    w = [[phi.diff(l, "anti") for l in range(n)]
         for phi in [P.phi_minus1] + [P.phi_k(j) for j in range(N)]]
    A = [BiDiffOp.pointwise(n, D)]
    for m in range(1, N + 1):
        cut = D - (m + 2)
        res = [_commutator_sum(A, w, m, l) for l in range(n)]
        terms = []
        for s in range(m, 0, -1):
            # the rows (b, beta), |beta| = s - 1, of the block |alpha| = s,
            # keyed (0, b) and (beta, 0), with the solved blocks |alpha| > s
            # already in the residual
            rows = {}
            for l, r in enumerate(res):
                for c, df, dg in r.terms:
                    if (not any(df[:n]) and not any(dg[n:])
                            and sum(dg) == s - 1):
                        c = c.drop_above(cut)
                        if not c.is_zero():
                            rows.setdefault((df, dg), []).append((l, c))
            block = []
            for (df, beta), row in rows.items():
                # x_alpha along the first j with alpha_j > 0
                for j in range(n):
                    acc = Jet.zero(n, D)
                    for l, c in row:
                        acc = acc + g_inv[l][j] * c
                    x = acc.drop_above(cut).scale(Fraction(-1, beta[j] + 1))
                    if not x.is_zero():
                        block.append((x, df, mi_add(beta, unit_mi(2 * n, j))))
                    if beta[j]:
                        break
            block = BiDiffOp(n, D, block)
            terms += block.terms
            res = [r + _commutator(block, w[0][l]) for l, r in enumerate(res)]
        if any(not r.drop_above(cut).is_zero() for r in res):
            raise ArithmeticError("inconsistent block in the recursion")
        A.append(BiDiffOp(n, D, terms))
    return A


def _commutator_sum(A, w, m, l):
    """The nu^m part of [sum_k nu^k A_k, nu R_l] over the operators A_0,
    A_1, ... of A: sum_k [A_k, w[m-k][l]], plus [A_{m-1}, d/dzbar_l]."""
    acc = BiDiffOp.zero(A[0].n, A[0].D)
    for k, a in enumerate(A):
        acc = acc + _commutator(a, w[m - k][l], l if m - k == 1 else None)
    return acc


def _commutator(op, w, l=None):
    """[op, w] for a BiDiffOp op and the multiplication by a jet w, plus
    [op, d/dzbar_l] when l is given, with [op, r](f, g) = op(f, r g) -
    r(op(f, g)).  By Leibniz (jets.mi_splits), a term c (d^df f)(d^dg g) of
    op, each key holo + anti, gives C(dg, gamma) c (d^gamma w)
    (d^df f)(d^(dg-gamma) g) for each nonzero gamma <= dg, and
    -(dbar_l c)(d^df f)(d^dg g) and -c (d^(df+e) f)(d^dg g), e the key of
    dbar_l."""
    n = op.n
    dw = {}
    out = []
    for c, df, dg in op.terms:
        for gamma, rest, binom in mi_splits(dg):
            if not any(gamma):
                continue        # op(f, w g) - w op(f, g) cancels it
            d = dw.get(gamma)
            if d is None:
                d = dw[gamma] = w.diff_multi(gamma)
            if not d.is_zero():
                out.append(((c * d).scale(binom), df, rest))
        if l is not None:
            out.append((-c.diff(l, "anti"), df, dg))
            out.append((-c, mi_add(df, unit_mi(2 * n, n + l)), dg))
    return BiDiffOp(n, op.D, out)


# ---------------------------------------------------------------------------
# star product assembly

def karabegov_star(P, N):
    """Anti-Wick star table through nu^N from a formal potential: the
    operators of _anti_wick_ops, C_k for k >= 1 cut at D - (N + 2)."""
    A = _anti_wick_ops(P, N, inverse_metric(P.phi_minus1))
    C = A[:1] + [op.drop_above(P.D - (N + 2)) for op in A[1:]]
    return StarTable(C=C, convention="karabegov_anti_wick",
                     label="karabegov")


def bt_star_from(P, N):
    """Berezin-Toeplitz star table through nu^N, Wick type.

    The Berezin-Toeplitz product is the separation-of-variables product with
    z and zbar switched whose Karabegov form is -(1/nu) omega + omega_can,
    omega_can = i d dbar log det g (Karabegov-Schlichenmaier).  It depends on
    omega alone, so a potential with a nonzero Phi_k entry raises ValueError.
    With P' = (Phi_{-1}, Phi'_0 = log det g), C_k = (-1)^k swap(C'_k) for the
    anti-Wick table C' of P', whose g^{-1} reuses the log's g and det g.  The
    constant of the log is dropped: only derivatives of Phi'_0 enter.

    Each coefficient is cut at degree D - (3N + 2): conjugating the Berezin
    product by its transform composes up to 2N derivatives of coefficients
    reliable through D - (N + 2), so this is the window on which the table
    and that conjugation agree term for term.  A budget below 3N + 2 leaves
    no degree and raises BudgetExceeded, and a metric singular at the
    origin raises DegenerateMetric before the log of det g is taken.
    """
    if any(not phi.is_zero() for phi in P.phi):
        raise ValueError("the Berezin-Toeplitz product depends on omega "
                         "alone; the potential has a nonzero Phi_k entry")
    cut = P.D - (3 * N + 2)
    if cut < 0:
        raise BudgetExceeded(f"degree budget D={P.D} below 3N+2={3 * N + 2}")
    g = hessian(P.phi_minus1)
    det = metric_det(g)
    P_log = FormalPotential(phi_minus1=P.phi_minus1, phi=[det.log()])
    A = _anti_wick_ops(P_log, N, metric_inverse(g, det))
    C = [(op.swap() if k % 2 == 0 else -op.swap()).drop_above(cut)
         for k, op in enumerate(A)]
    return StarTable(C=C, convention="wick", label="berezin-toeplitz")
