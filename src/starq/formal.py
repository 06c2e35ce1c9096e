"""Formal nu-graded differential and bidifferential operators.

A DiffOp is a finite sum coeff * d^holo_z d^anti_zbar with Jet coefficients,
and a BiDiffOp is the same for two arguments.  Each derivative is keyed as a
jet keys its terms, by one exponent tuple holo + anti of length 2n, so a
DiffOp term is (coeff, d) and a BiDiffOp term (coeff, df, dg), and
jets.mi_splits is the one Leibniz split of every composition.  One term-sum
base keeps the terms of both merged and sorted and gives both their sums,
negation, scaling, equality and cut at a degree.  A formal series
sum_k nu^k A_k of operators, such as the Berezin transform I, is the plain
tuple (A_0, ..., A_N) of its DiffOps; series_compose composes two such
series through nu^N.  A StarTable holds bidifferential coefficients
C_0..C_N of an associative deformed product, N = len(C) - 1, together with
a separation-of-variables convention flag, and refuses, at construction, a
C_k whose derivative orders break that convention.
tables_agree compares two tables term by term, through a total degree.
Polarization, the opposite and dual products and the series comparison
ops_agree are checked by tests/paper_checks.py: no command runs them.
"""

from .jets import Jet, jet_to_json, mi_add, mi_splits, mi_zero


class BudgetExceeded(ValueError):
    """Requested derivative order exceeds the declared degree budget."""


class OrderViolation(ValueError):
    """Operator orders incompatible with a polarization or with the
    separation of variables of a star table's convention."""


# ---------------------------------------------------------------------------
# term sums

class _TermSum:
    """Terms (coeff, exponent tuple, ...) with Jet coefficients, merged on
    equal exponent tuples, without zero ones and sorted by them."""

    __slots__ = ("n", "D", "terms")

    def __init__(self, n, D, terms=()):
        self.n = n
        self.D = D
        merged = {}
        for coeff, *idx in terms:
            key = tuple(map(tuple, idx))
            cur = merged.get(key)
            merged[key] = coeff if cur is None else cur + coeff
        self.terms = tuple((c,) + k for k, c in sorted(merged.items())
                           if not c.is_zero())

    @classmethod
    def zero(cls, n, D):
        return cls(n, D)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        return type(self)(self.n, self.D, self.terms + other.terms)

    def __neg__(self):
        return type(self)(self.n, self.D,
                          [(-t[0],) + t[1:] for t in self.terms])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        return type(self)(self.n, self.D,
                          [(t[0].scale(s),) + t[1:] for t in self.terms])

    def drop_above(self, degree):
        """Each coefficient cut at total degree `degree`."""
        return type(self)(self.n, self.D,
                          [(t[0].drop_above(degree),) + t[1:]
                           for t in self.terms])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.n, self.D, self.terms) == (other.n, other.D, other.terms)


# ---------------------------------------------------------------------------
# DiffOp

class DiffOp(_TermSum):
    """sum_i coeff_i * d^{d_i} with Jet coefficients, d_i = holo_i + anti_i."""

    __slots__ = ()

    @staticmethod
    def identity(n, D):
        return DiffOp(n, D, [(Jet.constant(1, n, D), mi_zero(2 * n))])

    @staticmethod
    def deriv(n, D, d):
        return DiffOp(n, D, [(Jet.constant(1, n, D), d)])

    def compose(self, other):
        """Leibniz composition: (self o other)(f) = self(other(f))."""
        out = []
        for p, a in self.terms:
            for q, c in other.terms:
                for a1, a2, cb in mi_splits(a):
                    dq = q.diff_multi(a2)
                    if not dq.is_zero():
                        out.append(((p * dq).scale(cb), mi_add(a1, c)))
        return DiffOp(self.n, self.D, out)

    def __repr__(self):
        return f"DiffOp({self.terms!r})"


def series_compose(a, b):
    """The nu-series of operators (sum_k nu^k a_k) o (sum_k nu^k b_k), each
    a tuple of DiffOps, through nu^N with N = len(a) - 1."""
    N = len(a) - 1
    out = [DiffOp.zero(a[0].n, a[0].D)] * (N + 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b[:N + 1 - i]):
            if not y.is_zero():
                out[i + j] = out[i + j] + x.compose(y)
    return tuple(out)


# ---------------------------------------------------------------------------
# BiDiffOp

class BiDiffOp(_TermSum):
    """sum coeff * (d^{df} f) * (d^{dg} g), df and dg each holo + anti."""

    __slots__ = ()

    @staticmethod
    def pointwise(n, D):
        z = mi_zero(2 * n)
        return BiDiffOp(n, D, [(Jet.constant(1, n, D), z, z)])

    def apply(self, f, g):
        out = Jet.zero(self.n, self.D)
        for coeff, df, dg in self.terms:
            out = out + coeff * f.diff_multi(df) * g.diff_multi(dg)
        return out

    def swap(self):
        """Arguments exchanged: C'(f,g) = C(g,f)."""
        return BiDiffOp(self.n, self.D,
                        [(c, dg, df) for c, df, dg in self.terms])

    def precompose(self, A1, A2):
        """C'(f,g) = C(A1 f, A2 g) for DiffOps A1, A2."""
        out = []
        for coeff, df, dg in self.terms:
            d1 = DiffOp.deriv(self.n, self.D, df).compose(A1)
            d2 = DiffOp.deriv(self.n, self.D, dg).compose(A2)
            for c1, k1 in d1.terms:
                cc1 = coeff * c1
                for c2, k2 in d2.terms:
                    out.append((cc1 * c2, k1, k2))
        return BiDiffOp(self.n, self.D, out)

    def postcompose(self, P):
        """C'(f,g) = P(C(f,g)) for a DiffOp P, by trinomial Leibniz."""
        out = []
        for p, a in P.terms:
            for coeff, df, dg in self.terms:
                for a1, rest, m1 in mi_splits(a):
                    dc = coeff.diff_multi(a1)
                    if dc.is_zero():
                        continue
                    # p * d^a1 coeff is shared by every split of the
                    # remaining derivatives between f and g
                    pdc = p * dc
                    for a2, a3, m2 in mi_splits(rest):
                        out.append((pdc.scale(m1 * m2),
                                    mi_add(df, a2), mi_add(dg, a3)))
        return BiDiffOp(self.n, self.D, out)

    def max_orders(self):
        """(f_holo, f_anti, g_holo, g_anti) maximal derivative orders."""
        n = self.n
        orders = [(sum(df[:n]), sum(df[n:]), sum(dg[:n]), sum(dg[n:]))
                  for _, df, dg in self.terms]
        return tuple(map(max, zip((0, 0, 0, 0), *orders)))


# ---------------------------------------------------------------------------
# StarTable

CONVENTIONS = ("karabegov_anti_wick", "wick", "none")


class StarTable:
    __slots__ = ("C", "convention", "label")

    def __init__(self, C, convention, label=""):
        """Raises OrderViolation if a C_k, k >= 1, breaks the convention's
        separation of variables."""
        if convention not in CONVENTIONS:
            raise ValueError(f"unknown convention {convention!r}")
        for k in range(1, len(C)):
            if not _routes_as(convention, k, C[k].max_orders()):
                raise OrderViolation(f"C_{k} violates convention {convention}")
        self.C = C                # BiDiffOp, C[0] .. C[N]
        self.convention = convention
        self.label = label

    @property
    def N(self):
        return len(self.C) - 1

    @property
    def n(self):
        return self.C[0].n

    @property
    def D(self):
        return self.C[0].D


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
# transform extraction

def transform_from_star(t):
    """Formal Berezin transform I = (I_0, ..., I_N), read off the anti-Wick
    table.

    C_k(bbar, a) = I_k(bbar a) for antiholomorphic bbar and holomorphic a,
    so the term coeff * d^b_zbar f * d^a_z g of C_k, keyed (0, b) and
    (a, 0), is the term coeff * d^a_z d^b_zbar of I_k, keyed (a, b), their
    sum; polarization is the inverse.  The table checked the anti-Wick
    (k, k) shape of each C_k when it was built.
    """
    if t.convention != "karabegov_anti_wick":
        raise ValueError("transform extraction requires an anti-Wick table")
    n, D = t.n, t.D
    return (DiffOp.identity(n, D),) + tuple(
        DiffOp(n, D, [(c, mi_add(df, dg)) for c, df, dg in op.terms])
        for op in t.C[1:])


def invert_transform(I):
    """Neumann inverse sum_k (-P)^k, P = I - I_0, of a transform tuple with
    identity leading order."""
    n, D, N = I[0].n, I[0].D, len(I) - 1
    if I[0] != DiffOp.identity(n, D):
        raise ValueError("transform must start with the identity")
    P = (DiffOp.zero(n, D),) + tuple(I[1:])
    out = power = (DiffOp.identity(n, D),) + (DiffOp.zero(n, D),) * N
    for k in range(1, N + 1):
        power = series_compose(power, P)
        out = tuple(a + b.scale((-1) ** k) for a, b in zip(out, power))
    return out


# ---------------------------------------------------------------------------
# star-product transforms

def conjugate_star(t, B):
    """Equivalent product f *' g = B^{-1}(B f * B g) for a transform tuple
    B = (B_0, ..., B_N)."""
    n, D, N = t.n, t.D, t.N
    if B[0] != DiffOp.identity(n, D):
        raise ValueError("equivalence transform must start with the identity")
    Binv = invert_transform(B)
    # C'_k = sum_{a+j=k} Binv_a o S_j with S_j = sum_{b+c+d=j} C_b(B_c ., B_d .):
    # each (b, c, d) is precomposed once, and postcomposition is linear, so
    # each (a, j) is postcomposed once; Binv_0 is the identity.
    S = []
    for j in range(N + 1):
        acc = BiDiffOp.zero(n, D)
        for b in range(j + 1):
            for c in range(j + 1 - b):
                acc = acc + t.C[b].precompose(B[c], B[j - b - c])
        S.append(acc)
    C_out = []
    for k in range(N + 1):
        acc = S[k]
        for a in range(1, k + 1):
            acc = acc + S[k - a].postcompose(Binv[a])
        C_out.append(acc)
    conv = detect_convention(C_out)
    return StarTable(C=C_out, convention=conv,
                     label=t.label + "|conjugated" if t.label else "conjugated")


# ---------------------------------------------------------------------------
# equality term by term

def tables_agree(t1, t2, up_to=None):
    """Whether every coefficient jet of C_k(t1) - C_k(t2), k = 0..N, vanishes
    through total degree up_to (default D - 2N).  Tables of different N, n
    or D do not agree."""
    if (t1.N, t1.n, t1.D) != (t2.N, t2.n, t2.D):
        return False
    up_to = t1.D - 2 * t1.N if up_to is None else up_to
    return all((a - b).drop_above(up_to).is_zero() for a, b in zip(t1.C, t2.C))


# ---------------------------------------------------------------------------
# serialization

def star_table_to_json(t):
    n = t.n
    coeffs = []
    for k, op in enumerate(t.C):
        terms = []
        for coeff, df, dg in op.terms:
            terms.append({"coeff": jet_to_json(coeff),
                          "f_dz": list(df[:n]), "f_dzbar": list(df[n:]),
                          "g_dz": list(dg[:n]), "g_dzbar": list(dg[n:])})
        coeffs.append({"k": k, "terms": terms})
    return {"order": t.N, "convention": t.convention, "label": t.label,
            "coefficients": coeffs}


