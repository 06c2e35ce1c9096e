"""Graph-expansion star products.

Two families:
  * admissible directed graphs on R^d with numerically integrated
    upper-half-plane angle weights (orders n <= 2; the quadrature, the only
    numpy code on this path, is in starq.quadrature);
  * weighted acyclic source/sink graphs whose contractions against the
    inverse metric of a Kaehler potential reproduce the recursion-built star
    product through nu^2 (gammelgaard_star derives that metric itself).

Sign bookkeeping (documented constants):
  * the angle form of an edge is d phi(z, w) with
    phi(z, w) = Im[log(w - z) - log(w - zbar)];
  * reported weights use the canonical per-vertex edge order L < R < 1 < 2 ...
    (swapping a vertex's two edges flips both the weight and the operator
    sign, so the product w * D is order independent); the star assembly
    multiplies the edge-order parity back in;
  * order-n term prefactor is (i nu / 2)^n.

The star-kontsevich and weights commands read their inputs here as well:
load_bivector and load_poly parse the --alpha-path file and the --f-poly and
--g-poly JSON, poly_json writes a product's orders, and integration_config
takes the quadrature fields of a run configuration.  KGraph and
IntegrationConfig hash by value, since together they key _WEIGHT_CACHE.
"""

import cmath
import itertools
import json
import math
from fractions import Fraction

from . import (QUADRATURE_FIELDS, Frozen, ResourceGuard, ValidationError,
               check_quadrature)

# The exact core (jets, formal, karabegov) is imported inside the weighted-
# graph functions: the Kontsevich commands never use it.


L = -1
R = -2


class IntegrationFailure(ArithmeticError):
    """Weight integration error estimate exceeds the configured tolerance."""


class CrossCheckFailure(ArithmeticError):
    """Graph expansion disagrees with the recursion-built product."""


# ---------------------------------------------------------------------------
# polynomials on R^d (float/complex coefficients)

class Poly:
    """Polynomial in x_1..x_d with complex coefficients; dict exponent->coeff."""

    __slots__ = ("d", "coeffs")

    def __init__(self, d, coeffs=None):
        self.d = d
        self.coeffs = {}
        if coeffs:
            for k, v in coeffs.items():
                if v != 0:
                    self.coeffs[tuple(k)] = self.coeffs.get(tuple(k), 0) + v
            self.coeffs = {k: v for k, v in self.coeffs.items() if v != 0}

    @staticmethod
    def constant(c, d):
        return Poly(d, {(0,) * d: c})

    @staticmethod
    def variable(i, d):
        e = tuple(1 if j == i else 0 for j in range(d))
        return Poly(d, {e: 1.0})

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return Poly(self.d, out)

    def __neg__(self):
        return Poly(self.d, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return Poly(self.d, {k: v * other for k, v in self.coeffs.items()})
        out = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                out[k] = out.get(k, 0) + v1 * v2
        return Poly(self.d, out)

    __rmul__ = __mul__

    def diff(self, i):
        out = {}
        for k, v in self.coeffs.items():
            if k[i] == 0:
                continue
            k2 = tuple(e - 1 if j == i else e for j, e in enumerate(k))
            out[k2] = out.get(k2, 0) + v * k[i]
        return Poly(self.d, out)

    def is_zero(self):
        return not self.coeffs

    def max_abs_coeff(self):
        return max((abs(v) for v in self.coeffs.values()), default=0.0)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.d == other.d and self.coeffs == other.coeffs

    def __repr__(self):
        return f"Poly({self.coeffs!r})"


class PoissonBivector:
    __slots__ = ("d", "alpha")

    def __init__(self, d, alpha):
        self.d = d
        self.alpha = alpha       # d x d matrix of Poly
        for i in range(self.d):
            for j in range(self.d):
                if not (self.alpha[i][j] + self.alpha[j][i]).is_zero():
                    raise ValueError("bivector must be antisymmetric")

    @staticmethod
    def constant(mat):
        d = len(mat)
        alpha = [[Poly.constant(mat[i][j], d) for j in range(d)] for i in range(d)]
        return PoissonBivector(d=d, alpha=alpha)


# ---------------------------------------------------------------------------
# admissible graphs

class KGraph(Frozen):
    """Admissible graph: targets holds, per internal vertex i (1-based), its
    ordered pair of targets.  Equal graphs hash equal: they key
    _WEIGHT_CACHE."""

    __slots__ = ("n", "targets")

    def __init__(self, n, targets):
        if len(targets) != n:
            raise ValueError("one target pair per internal vertex")
        for i, (a, b) in enumerate(targets, start=1):
            allowed = set(range(1, n + 1)) | {L, R}
            allowed.discard(i)
            if a == b or a not in allowed or b not in allowed:
                raise ValueError(f"invalid target pair for vertex {i}")
        self._set(n=n, targets=targets)

    def __eq__(self, other):
        if type(other) is not KGraph:
            return NotImplemented
        return (self.n, self.targets) == (other.n, other.targets)

    def __hash__(self):
        return hash((self.n, self.targets))

    def edge_list(self):
        """Edges in per-vertex order: (source, target)."""
        out = []
        for i, (a, b) in enumerate(self.targets, start=1):
            out.append((i, a))
            out.append((i, b))
        return out

    def order_parity(self):
        """+1 if every vertex pair is in canonical order L < R < 1 < 2 .., else
        (-1)^(number of swapped vertices)."""
        sign = 1
        for a, b in self.targets:
            if _target_key(a) > _target_key(b):
                sign = -sign
        return sign

    def canonical(self):
        tg = tuple(tuple(sorted(p, key=_target_key)) for p in self.targets)
        return KGraph(self.n, tg)

    def has_internal_edge(self):
        return any(t >= 1 for p in self.targets for t in p)

    def to_json(self):
        return {"n": self.n, "targets": [list(p) for p in self.targets]}


def _target_key(t):
    if t == L:
        return (0, 0)
    if t == R:
        return (0, 1)
    return (1, t)


def enumerate_kgraphs(n):
    """All admissible graphs with n internal vertices, deterministic order."""
    if n > 3:
        raise ResourceGuard("enumeration supported for n <= 3")
    if n == 0:
        return [KGraph(0, ())]
    out = []
    choices = []
    for i in range(1, n + 1):
        allowed = sorted((set(range(1, n + 1)) | {L, R}) - {i})
        pairs = [(a, b) for a in allowed for b in allowed if a != b]
        choices.append(pairs)
    for combo in itertools.product(*choices):
        out.append(KGraph(n, tuple(combo)))
    return out


def d_gamma(G, a, f, g):
    """Bidifferential operator of the graph applied to polynomials f, g.

    Sum over edge labelings of products of alpha factors (differentiated by
    incoming-edge labels) times f, g differentiated by the labels of edges
    into the two external vertices, in the graph's own edge order.
    """
    d = a.d
    edges = G.edge_list()
    total = Poly(d, {})
    for labels in itertools.product(range(d), repeat=len(edges)):
        prod = Poly.constant(1.0, d)
        ok = True
        for i in range(1, G.n + 1):
            la, lb = labels[2 * (i - 1)], labels[2 * (i - 1) + 1]
            factor = a.alpha[la][lb]
            for j, (src, tgt) in enumerate(edges):
                if tgt == i:
                    factor = factor.diff(labels[j])
            if factor.is_zero():
                ok = False
                break
            prod = prod * factor
        if not ok:
            continue
        ff = f
        for j, (src, tgt) in enumerate(edges):
            if tgt == L:
                ff = ff.diff(labels[j])
        if ff.is_zero():
            continue
        gg = g
        for j, (src, tgt) in enumerate(edges):
            if tgt == R:
                gg = gg.diff(labels[j])
        if gg.is_zero():
            continue
        total = total + prod * ff * gg
    return total


# ---------------------------------------------------------------------------
# weight integration

_QUADRATURE_DEFAULTS = dict(QUADRATURE_FIELDS)


class IntegrationConfig(Frozen):
    """Weight quadrature settings, the fields of QUADRATURE_FIELDS, held to
    check_quadrature's bounds; hashable, as part of the _WEIGHT_CACHE key."""

    __slots__ = tuple(_QUADRATURE_DEFAULTS)

    def __init__(self, **values):
        self._set_defaults(_QUADRATURE_DEFAULTS, values)
        check_quadrature(self)

    def _key(self):
        return tuple(getattr(self, k) for k in IntegrationConfig.__slots__)

    def __eq__(self, other):
        if type(other) is not IntegrationConfig:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class WeightResult(Frozen):
    __slots__ = ("value", "error_estimate", "samples_or_cells", "seed")

    def __init__(self, value, error_estimate, samples_or_cells, seed):
        self._set(value=value, error_estimate=error_estimate,
                  samples_or_cells=samples_or_cells, seed=seed)


_WEIGHT_CACHE = {}                # (G.canonical(), cfg) -> WeightResult


def kontsevich_weight(G, cfg=None):
    """Configuration-space weight of an admissible graph, n <= 2.

    The reported value uses the canonical per-vertex edge ordering; combine
    with order_parity() to pair against the literal operator convention.
    """
    cfg = cfg or IntegrationConfig()
    if G.n > 2:
        raise ResourceGuard("weights implemented for n <= 2")
    if G.n == 0:
        return WeightResult(1.0, 0.0, 0, cfg.seed)
    key = (G.canonical(), cfg)
    if key in _WEIGHT_CACHE:
        return _WEIGHT_CACHE[key]
    from .quadrature import grid_weight, mc_weight   # loads numpy
    if cfg.method == "grid":
        res = grid_weight(G, cfg)
    elif cfg.method == "mc":
        res = mc_weight(G, cfg)
    else:
        raise ValueError(f"unknown integration method {cfg.method!r}")
    if res.error_estimate > cfg.tol:
        raise IntegrationFailure(
            f"weight error estimate {res.error_estimate:.2e} exceeds "
            f"tolerance {cfg.tol:.2e}")
    _WEIGHT_CACHE[key] = res
    return res


# ---------------------------------------------------------------------------
# graph star product on R^d

def kontsevich_star(a, f, g, N, cfg=None):
    """nu-polynomial [C_0(f,g), ..., C_N(f,g)] with C_n = (i/2)^n sum w D."""
    if N > 2:
        raise ResourceGuard("graph star product implemented through order 2")
    cfg = cfg or IntegrationConfig()
    out = [f * g]
    for n in range(1, N + 1):
        acc = Poly(a.d, {})
        pref = (0.5j) ** n
        for G in enumerate_kgraphs(n):
            D = d_gamma(G, a, f, g)
            if D.is_zero():
                continue
            w = kontsevich_weight(G, cfg)
            acc = acc + D * (w.value * G.order_parity())
        out.append(acc * pref)
    return out


# ---------------------------------------------------------------------------
# command inputs and outputs (star-kontsevich, weights)

def load_bivector(path):
    """The constant bivector of a JSON file {"constant": square matrix}, or
    the standard symplectic form on R^2 when path is empty."""
    if not path:
        return PoissonBivector.constant([[0.0, 1.0], [-1.0, 0.0]])
    with open(path) as fh:
        obj = json.load(fh)
    mat = obj.get("constant") if isinstance(obj, dict) else None
    if not (isinstance(mat, list) and mat and all(
            isinstance(row, list) and len(row) == len(mat)
            and all(type(x) in (int, float) for x in row) for row in mat)):
        raise ValidationError(f"bivector file {path} has no square "
                              f"numeric 'constant' matrix")
    return PoissonBivector.constant(mat)


def load_poly(text, d):
    """A polynomial on R^d from JSON [[coeff, exponents], ...], where coeff
    is a number or a [re, im] pair; x_1 when text is empty."""
    if not text:
        return Poly.variable(0, d)
    coeffs = {}
    try:
        for coeff, exps in json.loads(text):
            if len(exps) != d or not all(type(e) is int and e >= 0
                                         for e in exps):
                raise ValidationError(f"exponent tuple {exps!r} is not {d} "
                                      f"nonnegative integers")
            if isinstance(coeff, bool) or isinstance(coeff, list) \
                    and any(isinstance(x, bool) for x in coeff):
                raise ValidationError(f"coefficient {coeff!r} is a boolean")
            c = complex(*coeff) if isinstance(coeff, list) \
                and len(coeff) == 2 else coeff
            # a TypeError for anything but a number or a [re, im] pair
            if not cmath.isfinite(c):
                raise ValidationError(f"coefficient {coeff!r} is not finite")
            coeffs[tuple(exps)] = coeffs.get(tuple(exps), 0) + c
    except TypeError as exc:
        raise ValidationError(f"polynomial {text!r} is not a list of "
                              f"[coeff, exponents] terms") from exc
    return Poly(d, coeffs)


def poly_json(p):
    return [[[c.real, c.imag], list(k)]
            for k, c in sorted(p.coeffs.items())]


def integration_config(cfg):
    """The IntegrationConfig of a run configuration's quadrature fields."""
    return IntegrationConfig(**{name: getattr(cfg, name)
                                for name in _QUADRATURE_DEFAULTS})


# ---------------------------------------------------------------------------
# weighted acyclic source/sink graphs

class GGraph(Frozen):
    """Weighted source/sink graph: weights are the internal vertex weights
    in canonical order, edges are ((u, v, multiplicity), ...) over the
    vertices "S", "T", 0..k, and aut is |Aut|."""

    __slots__ = ("weights", "edges", "aut")

    def __init__(self, weights, edges, aut):
        self._set(weights=weights, edges=edges, aut=aut)

    def total_weight(self):
        ne = sum(m for _, _, m in self.edges)
        return ne + sum(self.weights)

    def to_json(self):
        verts = [{"id": "S", "w": None}, {"id": "T", "w": None}]
        verts += [{"id": i, "w": w} for i, w in enumerate(self.weights)]
        edge_list = []
        for u, v, m in self.edges:
            edge_list += [[u, v]] * m
        return {"vertices": verts, "edges": edge_list, "aut": self.aut}


def enumerate_ggraphs(Wmax):
    """All weighted acyclic source/sink graphs of total weight <= Wmax,
    up to isomorphism fixing source and sink, with |Aut| attached."""
    if Wmax > 2:
        raise ResourceGuard("enumeration supported for total weight <= 2")
    found = {}

    def consider(weights, mult):
        """weights: tuple of internal weights; mult: dict (u,v)->m."""
        k = len(weights)
        ne = sum(mult.values())
        W = ne + sum(weights)
        if W > Wmax:
            return
        # degree constraints (every internal vertex has an in- and an
        # out-edge: the enumeration below passes no other multiset)
        for v in range(k):
            if weights[v] == -1 and sum(
                    m for (a, b), m in mult.items() if v in (a, b)) < 3:
                return
        # acyclicity among internal vertices (edges only S->, ->T, v->v')
        order = {}
        rem = set(range(k))
        internal = {(a, b): m for (a, b), m in mult.items()
                    if isinstance(a, int) and isinstance(b, int)}
        while rem:
            progress = False
            for v in list(rem):
                if all(a not in rem for (a, b) in internal if b == v):
                    rem.discard(v)
                    progress = True
            if not progress:
                return  # cycle
        # canonical form and automorphisms over internal permutations
        best = None
        auts = 0
        for perm in itertools.permutations(range(k)):
            pw = tuple(weights[perm.index(i)] for i in range(k))
            pm = {}
            for (a, b), m in mult.items():
                aa = perm[a] if isinstance(a, int) else a
                bb = perm[b] if isinstance(b, int) else b
                pm[(aa, bb)] = m
            key = (pw, tuple(sorted(pm.items(), key=lambda kv: str(kv[0]))))
            if key == (tuple(weights),
                       tuple(sorted(mult.items(), key=lambda kv: str(kv[0])))):
                auts += 1
            if best is None or str(key) < str(best):
                best = key
        mult_fact = 1
        for m in mult.values():
            mult_fact *= math.factorial(m)
        aut = auts * mult_fact
        if best not in found:
            pw, pm = best
            edges = tuple((u, v, m) for (u, v), m in pm)
            found[best] = GGraph(weights=pw, edges=edges, aut=aut)

    # brute force: k internal vertices, edge multisets over all allowed pairs;
    # a weight -1 vertex buys one extra edge, so |E| <= Wmax + k
    for k in range(0, 4):
        pairs = [("S", "T")]
        pairs += [("S", v) for v in range(k)]
        pairs += [(v, "T") for v in range(k)]
        pairs += [(u, v) for u in range(k) for v in range(k) if u != v]
        max_edges = Wmax + k
        inner = set(range(k))
        for weights in itertools.product(range(-1, Wmax + 1), repeat=k):
            lo = max(1 if k else 0, -sum(weights))
            for ne in range(lo, max_edges + 1):
                if ne + sum(weights) > Wmax:
                    continue
                for combo in itertools.combinations_with_replacement(pairs, ne):
                    if not inner <= {b for _, b in combo} \
                            or not inner <= {a for a, _ in combo}:
                        continue
                    mult = {}
                    for e in combo:
                        mult[e] = mult.get(e, 0) + 1
                    consider(tuple(weights), mult)
    return sorted(found.values(),
                  key=lambda G: (G.total_weight(), str(G.weights), str(G.edges)))


def gammelgaard_star(P, N):
    """Anti-Wick star table through nu^N (N <= 2) from weighted-graph
    contractions.

    Edge rule: each directed edge contracts an anti-holomorphic derivative at
    its tail against a holomorphic derivative at its head through the inverse
    metric g^{-1} of Phi_{-1}; internal vertices of weight k carry -Phi_k.
    Every coefficient jet must agree with karabegov_star(P, N) through total
    degree D - (N + 2) - 2, or CrossCheckFailure is raised.
    """
    from .formal import BiDiffOp, StarTable, tables_agree
    from .jets import metric_from_potential
    from .karabegov import karabegov_star
    if N > 2:
        raise ResourceGuard("graph expansion implemented through order 2")
    n, D = P.n, P.D
    g_inv = metric_from_potential(P.phi_minus1).g_inv
    C = [BiDiffOp.zero(n, D) for _ in range(N + 1)]
    C[0] = BiDiffOp.pointwise(n, D)
    for G in enumerate_ggraphs(N):
        W = G.total_weight()
        if W == 0 or W > N:
            continue
        C[W] = C[W] + _ggraph_operator(G, P, g_inv)
    table = StarTable(N=N, C=C, convention="karabegov_anti_wick",
                      label="graph-expansion")
    table.check_convention()
    if not tables_agree(table, karabegov_star(P, N), D - (N + 2) - 2):
        raise CrossCheckFailure("graph expansion disagrees with the recursion")
    return table


def _ggraph_operator(G, P, g_inv):
    """Contraction of one weighted graph into a bidifferential operator."""
    from .formal import BiDiffOp
    from .jets import Jet, mi_zero
    n, D = P.n, P.D
    edge_slots = []
    for u, v, m in G.edges:
        edge_slots += [(u, v)] * m
    k = len(G.weights)
    terms = []
    for assign in itertools.product(
            itertools.product(range(n), repeat=2), repeat=len(edge_slots)):
        # edge e: (anti index at tail, holo index at head)
        coeff = Jet.constant(Fraction(1, G.aut), n, D)
        for (b, a) in assign:
            coeff = coeff * g_inv[b][a]
        ok = True
        for v in range(k):
            holo = [0] * n
            anti = [0] * n
            for (u, w), (b, a) in zip(edge_slots, assign):
                if w == v:
                    holo[a] += 1
                if u == v:
                    anti[b] += 1
            vert = (-P.phi_k(G.weights[v]) if G.weights[v] >= 0
                    else -P.phi_minus1).diff_multi(tuple(holo), tuple(anti))
            if vert.is_zero():
                ok = False
                break
            coeff = coeff * vert
        if not ok or coeff.is_zero():
            continue
        f_anti = [0] * n
        g_holo = [0] * n
        for (u, w), (b, a) in zip(edge_slots, assign):
            if u == "S":
                f_anti[b] += 1
            if w == "T":
                g_holo[a] += 1
        terms.append((coeff, mi_zero(n), tuple(f_anti), tuple(g_holo), mi_zero(n)))
    return BiDiffOp(n, D, terms)
