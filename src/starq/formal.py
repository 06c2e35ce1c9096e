"""Formal nu-graded differential and bidifferential operators.

A DiffOp is a finite sum coeff * d^holo_z d^anti_zbar with Jet coefficients.
A NuDiffOp stacks DiffOps by nu power.  A StarTable holds bidifferential
coefficients C_0..C_N of an associative deformed product together with a
separation-of-variables convention flag.  tables_agree and ops_agree
compare two tables or two series term by term, through a total degree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .jets import (
    Jet, jet_to_json, jet_from_json,
    mi_add, mi_binom, mi_deg, mi_sub, mi_zero,
)


class BudgetExceeded(ValueError):
    """Requested derivative order exceeds the declared degree budget."""


class OrderViolation(ValueError):
    """Operator order incompatible with the requested polarization."""


class SingularSystem(ArithmeticError):
    """A star table's terms lack the shape the transform is read off from."""


# ---------------------------------------------------------------------------
# DiffOp

class DiffOp:
    """sum_i coeff_i * d^{holo_i}_z d^{anti_i}_zbar with Jet coefficients."""

    __slots__ = ("n", "D", "terms")

    def __init__(self, n, D, terms=()):
        self.n = n
        self.D = D
        merged = {}
        for coeff, holo, anti in terms:
            key = (tuple(holo), tuple(anti))
            cur = merged.get(key)
            merged[key] = coeff if cur is None else cur + coeff
        self.terms = tuple((c, h, a) for (h, a), c in sorted(merged.items())
                           if not c.is_zero())

    @staticmethod
    def zero(n, D):
        return DiffOp(n, D)

    @staticmethod
    def identity(n, D):
        return DiffOp(n, D, [(Jet.constant(1, n, D), mi_zero(n), mi_zero(n))])

    @staticmethod
    def mult(jet):
        return DiffOp(jet.n, jet.max_degree,
                      [(jet, mi_zero(jet.n), mi_zero(jet.n))])

    @staticmethod
    def deriv(n, D, holo, anti):
        return DiffOp(n, D, [(Jet.constant(1, n, D), holo, anti)])

    def is_zero(self):
        return not self.terms

    def max_order(self):
        return max((mi_deg(h) + mi_deg(a) for _, h, a in self.terms), default=0)

    def __add__(self, other):
        return DiffOp(self.n, self.D, list(self.terms) + list(other.terms))

    def __neg__(self):
        return DiffOp(self.n, self.D, [(-c, h, a) for c, h, a in self.terms])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        return DiffOp(self.n, self.D, [(c.scale(s), h, a) for c, h, a in self.terms])

    def apply(self, f):
        out = Jet.zero(self.n, self.D)
        for coeff, h, a in self.terms:
            out = out + coeff * f.diff_multi(h, a)
        return out

    def compose(self, other):
        """Leibniz composition: (self o other)(f) = self(other(f))."""
        n = self.n
        out = []
        for p, a, b in self.terms:
            for q, c, d in other.terms:
                for a1 in _sub_indices(a):
                    for b1 in _sub_indices(b):
                        cb = mi_binom(a, a1) * mi_binom(b, b1)
                        dq = q.diff_multi(mi_sub(a, a1), mi_sub(b, b1))
                        if dq.is_zero():
                            continue
                        coeff = (p * dq).scale(cb)
                        out.append((coeff, mi_add(a1, c), mi_add(b1, d)))
        return DiffOp(n, self.D, out)

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return (self.n, self.D, self.terms) == (other.n, other.D, other.terms)

    def __repr__(self):
        return f"DiffOp({self.terms!r})"


def _sub_indices(a):
    """All multi-indices componentwise <= a."""
    return itertools.product(*(range(x + 1) for x in a))


# ---------------------------------------------------------------------------
# NuDiffOp

class NuDiffOp:
    """Formal series sum_k nu^k A_k of DiffOps, truncated at order N."""

    __slots__ = ("n", "D", "N", "orders")

    def __init__(self, n, D, N, orders):
        self.n = n
        self.D = D
        self.N = N
        orders = list(orders)
        if len(orders) < N + 1:
            orders += [DiffOp.zero(n, D)] * (N + 1 - len(orders))
        self.orders = tuple(orders[:N + 1])

    @staticmethod
    def identity(n, D, N):
        return NuDiffOp(n, D, N, [DiffOp.identity(n, D)])

    def is_identity_leading(self):
        return self.orders[0] == DiffOp.identity(self.n, self.D)

    def check_budget(self):
        for k, op in enumerate(self.orders):
            if op.max_order() > self.D:
                raise BudgetExceeded(
                    f"order-{k} operator derivative order {op.max_order()} "
                    f"exceeds degree budget {self.D}")

    def apply(self, fseries):
        """Apply to a nu-series of jets (list of length <= N+1)."""
        self.check_budget()
        out = [Jet.zero(self.n, self.D) for _ in range(self.N + 1)]
        for i, op in enumerate(self.orders):
            for j, f in enumerate(fseries):
                if i + j > self.N:
                    break
                out[i + j] = out[i + j] + op.apply(f)
        return out

    def compose(self, other):
        if self.N != other.N:
            raise ValueError("nu-order mismatch in composition")
        orders = [DiffOp.zero(self.n, self.D) for _ in range(self.N + 1)]
        for i, a in enumerate(self.orders):
            if a.is_zero():
                continue
            for j, b in enumerate(other.orders):
                if i + j > self.N or b.is_zero():
                    continue
                orders[i + j] = orders[i + j] + a.compose(b)
        return NuDiffOp(self.n, self.D, self.N, orders)

    def __eq__(self, other):
        if not isinstance(other, NuDiffOp):
            return NotImplemented
        return (self.n, self.D, self.N) == (other.n, other.D, other.N) and \
            all(a == b for a, b in zip(self.orders, other.orders))


# ---------------------------------------------------------------------------
# BiDiffOp

class BiDiffOp:
    """sum coeff * (d^{fh}_z d^{fa}_zbar f) * (d^{gh}_z d^{ga}_zbar g)."""

    __slots__ = ("n", "D", "terms")

    def __init__(self, n, D, terms=()):
        self.n = n
        self.D = D
        merged = {}
        for coeff, fh, fa, gh, ga in terms:
            key = (tuple(fh), tuple(fa), tuple(gh), tuple(ga))
            cur = merged.get(key)
            merged[key] = coeff if cur is None else cur + coeff
        self.terms = tuple((c,) + k for k, c in sorted(merged.items())
                           if not c.is_zero())

    @staticmethod
    def zero(n, D):
        return BiDiffOp(n, D)

    @staticmethod
    def pointwise(n, D):
        z = mi_zero(n)
        return BiDiffOp(n, D, [(Jet.constant(1, n, D), z, z, z, z)])

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        return BiDiffOp(self.n, self.D, list(self.terms) + list(other.terms))

    def __neg__(self):
        return BiDiffOp(self.n, self.D, [(-t[0],) + t[1:] for t in self.terms])

    def __sub__(self, other):
        return self + (-other)

    def apply(self, f, g):
        out = Jet.zero(self.n, self.D)
        for coeff, fh, fa, gh, ga in self.terms:
            out = out + coeff * f.diff_multi(fh, fa) * g.diff_multi(gh, ga)
        return out

    def swap(self):
        """Arguments exchanged: C'(f,g) = C(g,f)."""
        return BiDiffOp(self.n, self.D,
                        [(c, gh, ga, fh, fa) for c, fh, fa, gh, ga in self.terms])

    def precompose(self, A1, A2):
        """C'(f,g) = C(A1 f, A2 g) for DiffOps A1, A2."""
        out = []
        for coeff, fh, fa, gh, ga in self.terms:
            d1 = DiffOp.deriv(self.n, self.D, fh, fa).compose(A1)
            d2 = DiffOp.deriv(self.n, self.D, gh, ga).compose(A2)
            for c1, h1, a1 in d1.terms:
                cc1 = coeff * c1
                for c2, h2, a2 in d2.terms:
                    out.append((cc1 * c2, h1, a1, h2, a2))
        return BiDiffOp(self.n, self.D, out)

    def postcompose(self, P):
        """C'(f,g) = P(C(f,g)) for a DiffOp P, by trinomial Leibniz."""
        out = []
        for p, a, b in P.terms:
            for coeff, fh, fa, gh, ga in self.terms:
                for a1 in _sub_indices(a):
                    rest_a = mi_sub(a, a1)
                    for b1 in _sub_indices(b):
                        dc = coeff.diff_multi(a1, b1)
                        if dc.is_zero():
                            continue
                        # p * d^(a1, b1) coeff is shared by every split of
                        # the remaining derivatives between f and g
                        pdc = p * dc
                        rest_b = mi_sub(b, b1)
                        m1 = mi_binom(a, a1) * mi_binom(b, b1)
                        for a2 in _sub_indices(rest_a):
                            a3 = mi_sub(rest_a, a2)
                            ma = m1 * mi_binom(rest_a, a2)
                            for b2 in _sub_indices(rest_b):
                                b3 = mi_sub(rest_b, b2)
                                out.append((pdc.scale(ma * mi_binom(rest_b, b2)),
                                            mi_add(fh, a2), mi_add(fa, b2),
                                            mi_add(gh, a3), mi_add(ga, b3)))
        return BiDiffOp(self.n, self.D, out)

    def max_orders(self):
        """(f_holo, f_anti, g_holo, g_anti) maximal derivative orders."""
        fh = max((mi_deg(t[1]) for t in self.terms), default=0)
        fa = max((mi_deg(t[2]) for t in self.terms), default=0)
        gh = max((mi_deg(t[3]) for t in self.terms), default=0)
        ga = max((mi_deg(t[4]) for t in self.terms), default=0)
        return fh, fa, gh, ga

    def __eq__(self, other):
        if not isinstance(other, BiDiffOp):
            return NotImplemented
        return (self.n, self.D, self.terms) == (other.n, other.D, other.terms)


# ---------------------------------------------------------------------------
# StarTable

CONVENTIONS = ("karabegov_anti_wick", "wick", "none")


@dataclass
class StarTable:
    N: int
    C: list               # BiDiffOp, C[0] .. C[N]
    convention: str
    label: str = ""

    def __post_init__(self):
        if self.convention not in CONVENTIONS:
            raise ValueError(f"unknown convention {self.convention!r}")
        if len(self.C) != self.N + 1:
            raise ValueError("need exactly N+1 coefficient operators")

    @property
    def n(self):
        return self.C[0].n

    @property
    def D(self):
        return self.C[0].D

    def check_convention(self):
        """Structural separation-of-variables check on C_k, k >= 1."""
        for k in range(1, self.N + 1):
            if not _routes_as(self.convention, k, self.C[k].max_orders()):
                raise OrderViolation(
                    f"C_{k} violates convention {self.convention}")


def _routes_as(convention, k, orders):
    """Whether derivative orders (f_holo, f_anti, g_holo, g_anti) of C_k fit
    a convention: anti-Wick differentiates f only in zbar and g only in z,
    Wick the other way round, each to order at most k."""
    fh, fa, gh, ga = orders
    if convention == "karabegov_anti_wick":
        return fh == 0 and ga == 0 and fa <= k and gh <= k
    if convention == "wick":
        return fa == 0 and gh == 0 and fh <= k and ga <= k
    return True


def detect_convention(table_ops):
    """Classify a list of BiDiffOps (C_0..C_N) by derivative routing."""
    orders = [op.max_orders() for op in table_ops]
    return next(conv for conv in CONVENTIONS
                if all(_routes_as(conv, k, orders[k])
                       for k in range(1, len(orders))))


def star_eval(t, f, g):
    """[C_0(f,g), ..., C_N(f,g)] for single jets f, g."""
    return [t.C[k].apply(f, g) for k in range(t.N + 1)]


def star_series(t, fs, gs):
    """Deformed product of two nu-series of jets."""
    n, D, N = t.n, t.D, t.N
    out = [Jet.zero(n, D) for _ in range(N + 1)]
    for k in range(N + 1):
        for i, f in enumerate(fs):
            if k + i > N:
                break
            for j, g in enumerate(gs):
                if k + i + j > N:
                    break
                out[k + i + j] = out[k + i + j] + t.C[k].apply(f, g)
    return out


def assoc_defect(t, f, g, h):
    """(f*g)*h - f*(g*h) as a nu-series of jets."""
    fg = star_eval(t, f, g)
    gh = star_eval(t, g, h)
    lhs = star_series(t, fg, [h])
    rhs = star_series(t, [f], gh)
    return [a - b for a, b in zip(lhs, rhs)]


# ---------------------------------------------------------------------------
# polarization and transform extraction

def polarize(I_k, k):
    """Rebuild C_k from I_k: anti derivatives go to the first argument,
    holomorphic derivatives to the second, coefficients carried over."""
    n, D = I_k.n, I_k.D
    z = mi_zero(n)
    C_k = BiDiffOp(n, D, [(c, z, a, h, z) for c, h, a in I_k.terms])
    if not _routes_as("karabegov_anti_wick", k, C_k.max_orders()):
        raise OrderViolation(f"I_{k} has a term of order above ({k},{k})")
    return C_k


def transform_from_star(t):
    """Formal Berezin transform I, read off the anti-Wick table.

    C_k(bbar, a) = I_k(bbar a) for antiholomorphic bbar and holomorphic a,
    so the term coeff * d^b_zbar f * d^a_z g of C_k is the term
    coeff * d^a_z d^b_zbar of I_k; `polarize` is the inverse.  Raises
    SingularSystem if a term of C_k breaks the anti-Wick (k,k) shape.
    """
    if t.convention != "karabegov_anti_wick":
        raise ValueError("transform extraction requires an anti-Wick table")
    n, D, N = t.n, t.D, t.N
    orders = [DiffOp.identity(n, D)]
    for k in range(1, N + 1):
        if not _routes_as("karabegov_anti_wick", k, t.C[k].max_orders()):
            raise SingularSystem(
                f"C_{k} is not of separation-of-variables order ({k},{k})")
        orders.append(DiffOp(n, D, [(c, gh, fa)
                                    for c, _, fa, gh, _ in t.C[k].terms]))
    return NuDiffOp(n, D, N, orders)


def invert_transform(I):
    """Neumann inverse of a transform with identity leading order."""
    if not I.is_identity_leading():
        raise ValueError("transform must start with the identity")
    n, D, N = I.n, I.D, I.N
    ident = NuDiffOp.identity(n, D, N)
    P = NuDiffOp(n, D, N, [DiffOp.zero(n, D)] + list(I.orders[1:]))
    out = ident
    power = ident
    sign = -1
    for _ in range(N):
        power = power.compose(P)
        term = NuDiffOp(n, D, N, [op.scale(sign) for op in power.orders])
        out = NuDiffOp(n, D, N, [a + b for a, b in zip(out.orders, term.orders)])
        sign = -sign
    return out


# ---------------------------------------------------------------------------
# star-product transforms

def conjugate_star(t, B):
    """Equivalent product f *' g = B^{-1}(B f * B g)."""
    if not B.is_identity_leading():
        raise ValueError("equivalence transform must start with the identity")
    n, D, N = t.n, t.D, t.N
    Binv = invert_transform(B)
    # C'_k = sum_{a+j=k} Binv_a o S_j with S_j = sum_{b+c+d=j} C_b(B_c ., B_d .):
    # each (b, c, d) is precomposed once, and postcomposition is linear, so
    # each (a, j) is postcomposed once; Binv_0 is the identity.
    S = []
    for j in range(N + 1):
        acc = BiDiffOp.zero(n, D)
        for b in range(j + 1):
            for c in range(j + 1 - b):
                acc = acc + t.C[b].precompose(B.orders[c], B.orders[j - b - c])
        S.append(acc)
    C_out = []
    for k in range(N + 1):
        acc = S[k]
        for a in range(1, k + 1):
            acc = acc + S[k - a].postcompose(Binv.orders[a])
        C_out.append(acc)
    conv = detect_convention(C_out)
    return StarTable(N=N, C=C_out, convention=conv,
                     label=t.label + "|conjugated" if t.label else "conjugated")


def opposite_star(t):
    C_out = [c.swap() for c in t.C]
    conv = detect_convention(C_out)
    return StarTable(N=t.N, C=C_out, convention=conv,
                     label=t.label + "|opposite" if t.label else "opposite")


def dual_star(t, I):
    """f *~ g = I^{-1}(I(g) * I(f))."""
    return conjugate_star(opposite_star(t), I)


# ---------------------------------------------------------------------------
# equality term by term

def tables_agree(t1, t2, up_to=None):
    """Whether every coefficient jet of C_k(t1) - C_k(t2), k = 0..N, vanishes
    through total degree up_to (default D - 2N).  Tables of different N, n
    or D do not agree."""
    if (t1.N, t1.n, t1.D) != (t2.N, t2.n, t2.D):
        return False
    if up_to is None:
        up_to = t1.D - 2 * t1.N
    return all(_vanishes(a - b, up_to) for a, b in zip(t1.C, t2.C))


def ops_agree(A, B, up_to=None):
    """Whether every coefficient jet of A_k - B_k, k = 0..N, vanishes through
    total degree up_to (default D - N).  Series of different N, n or D do
    not agree."""
    if (A.N, A.n, A.D) != (B.N, B.n, B.D):
        return False
    if up_to is None:
        up_to = A.D - A.N
    return all(_vanishes(a - b, up_to) for a, b in zip(A.orders, B.orders))


def _vanishes(op, up_to):
    """Whether every coefficient of a DiffOp or BiDiffOp vanishes through
    total degree up_to."""
    return all(term[0].drop_above(up_to).is_zero() for term in op.terms)


# ---------------------------------------------------------------------------
# serialization

def star_table_to_json(t):
    coeffs = []
    for k, op in enumerate(t.C):
        terms = []
        for coeff, fh, fa, gh, ga in op.terms:
            terms.append({"coeff": jet_to_json(coeff),
                          "f_dz": list(fh), "f_dzbar": list(fa),
                          "g_dz": list(gh), "g_dzbar": list(ga)})
        coeffs.append({"k": k, "terms": terms})
    return {"order": t.N, "convention": t.convention, "label": t.label,
            "coefficients": coeffs}


def star_table_from_json(obj, n=None, D=None):
    N = obj["order"]
    C = []
    for entry in sorted(obj["coefficients"], key=lambda e: e["k"]):
        terms = []
        for tm in entry["terms"]:
            coeff = jet_from_json(tm["coeff"])
            n = coeff.n if n is None else n
            D = coeff.max_degree if D is None else D
            terms.append((coeff, tuple(tm["f_dz"]), tuple(tm["f_dzbar"]),
                          tuple(tm["g_dz"]), tuple(tm["g_dzbar"])))
        if n is None:
            raise ValueError("cannot infer dimensions from an empty table")
        C.append(BiDiffOp(n, D, terms))
    return StarTable(N=N, C=C, convention=obj["convention"],
                     label=obj.get("label", ""))
