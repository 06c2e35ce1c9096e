"""Graph-expansion star products.

Two families:
  * admissible directed graphs on R^d with upper-half-plane angle weights
    integrated on a midpoint grid (orders n <= 2; the quadrature, the only
    numpy code on this path, is in starq.quadrature);
  * weighted acyclic source/sink graphs whose contractions against the
    inverse metric of a Kaehler potential reproduce the recursion-built star
    product through nu^2 (gammelgaard_star derives that metric itself).

The weighted graphs are generated from their rules, not filtered.  Every
internal vertex has an in-edge and an out-edge, and a weight -1 vertex has
valence >= 3; the first vertex's in-edge leaves the source and the last
one's out-edge enters the sink.  So a graph with k internal vertices, a of
weight -1, has 2|E| >= 3a + 2(k - a) + 2, and its total weight
W = |E| + sum of vertex weights is at least (k + 2)/2: k <= 2W - 2.
Internal edges run only from a lower to a higher vertex, a topological
numbering, so each graph is acyclic by construction.  A class is kept once,
as its least relabelling by str, with |Aut| attached.  enumerate_ggraphs
lists them through total weight 3; gammelgaard_star contracts through 2.

Sign bookkeeping (documented constants):
  * the angle form of an edge is d phi(z, w) with
    phi(z, w) = Im[log(w - z) - log(w - zbar)];
  * reported weights use the canonical per-vertex edge order L < R < 1 < 2 ...
    (swapping a vertex's two edges flips both the weight and the operator
    sign, so the product w * D is order independent); the star assembly
    multiplies the edge-order parity back in;
  * order-n term prefactor is (i nu / 2)^n.

kontsevich_weights integrates a batch of weights: in this process, and on
a multi-CPU machine in forked children too (see its docstring); no value
depends on the CPU count.

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
import os
from collections import namedtuple
from fractions import Fraction

from . import (FLOAT_MAX, MAX_N, QUADRATURE_FIELDS, ResourceGuard,
               ValidationError, check_quadrature)

# The exact core (jets, formal, karabegov) is imported inside the weighted-
# graph functions: the Kontsevich commands never use it.


L = -1
R = -2


class IntegrationFailure(ArithmeticError):
    """A weight integration that cannot be trusted: its error estimate
    exceeds the configured tolerance, its excision radius measures nothing,
    or its worker ended without a result."""


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

class KGraph(namedtuple("KGraph", "n targets")):
    """Admissible graph: targets holds, per internal vertex i (1-based), its
    ordered pair of targets.  Equal graphs hash equal: they key
    _WEIGHT_CACHE."""

    __slots__ = ()

    def __new__(cls, n, targets):
        if len(targets) != n:
            raise ValueError("one target pair per internal vertex")
        for i, (a, b) in enumerate(targets, start=1):
            allowed = _allowed_targets(n, i)
            if a == b or a not in allowed or b not in allowed:
                raise ValueError(f"invalid target pair for vertex {i}")
        return super().__new__(cls, n, targets)

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


def _allowed_targets(n, i):
    """The targets an edge of vertex i may have, of n internal, sorted."""
    return sorted((set(range(1, n + 1)) | {L, R}) - {i})


def enumerate_kgraphs(n):
    """All admissible graphs with n internal vertices, deterministic order."""
    if n > 3:
        raise ResourceGuard("enumeration supported for n <= 3")
    choices = [itertools.permutations(_allowed_targets(n, i), 2)
               for i in range(1, n + 1)]
    return [KGraph(n, combo) for combo in itertools.product(*choices)]


def d_gamma(G, a, f, g):
    """Bidifferential operator of the graph applied to polynomials f, g.

    Sum over edge labelings of products of alpha factors (differentiated by
    incoming-edge labels) times f, g differentiated by the labels of edges
    into the two external vertices, in the graph's own edge order.
    """
    d = a.d
    edges = G.edge_list()

    def into(p, v, labels):
        # p differentiated by the labels of the edges into v, in edge order
        for (_, tgt), label in zip(edges, labels):
            if tgt == v:
                p = p.diff(label)
        return p

    total = Poly(d, {})
    for labels in itertools.product(range(d), repeat=len(edges)):
        vertices = [(a.alpha[labels[2 * i - 2]][labels[2 * i - 1]], i)
                    for i in range(1, G.n + 1)] + [(f, L), (g, R)]
        factors = []
        for p, v in vertices:             # up to the first zero factor
            factors.append(into(p, v, labels))
            if factors[-1].is_zero():
                break
        else:
            total = total + math.prod(factors, start=Poly.constant(1.0, d))
    return total


# ---------------------------------------------------------------------------
# weight integration

_QUADRATURE_DEFAULTS = dict(QUADRATURE_FIELDS)


class IntegrationConfig(namedtuple(
        "IntegrationConfig", _QUADRATURE_DEFAULTS,
        defaults=_QUADRATURE_DEFAULTS.values())):
    """Weight quadrature settings, the fields of QUADRATURE_FIELDS, held to
    check_quadrature's bounds; hashable, as part of the _WEIGHT_CACHE key."""

    __slots__ = ()

    def __new__(cls, **values):
        cfg = super().__new__(cls, **values)
        check_quadrature(cfg)
        return cfg

    def __getnewargs_ex__(self):
        # copy and pickle rebuild the record through __new__, by keyword
        return (), self._asdict()


WeightResult = namedtuple("WeightResult",
                          "value error_estimate samples_or_cells")


_WEIGHT_CACHE = {}                # (G.canonical(), cfg) -> WeightResult


def kontsevich_weight(G, cfg=None):
    """Configuration-space weight of an admissible graph, n <= 2: the
    one-graph case of kontsevich_weights.

    The reported value uses the canonical per-vertex edge ordering; combine
    with order_parity() to pair against the literal operator convention.
    """
    return kontsevich_weights([G], cfg)[0]


def kontsevich_weights(graphs, cfg=None):
    """The weights of admissible graphs, n <= 2, in the order given.

    Each graph is looked up in _WEIGHT_CACHE by its canonical form.  The
    misses are dealt round-robin over k = min(usable CPUs, their number)
    shares, integrated at once by this process and k - 1 forked children
    (_in_workers); numpy is loaded before the fork, so no child loads it
    again.  Each graph goes through grid_weight alone, so no value depends
    on k.  The misses are settled in the order given: each result is
    cached, and the first exception met, an integration that raised or an
    error estimate above cfg.tol (_integrate), is raised as it would be one
    graph at a time, with only the graphs before it cached.
    """
    cfg = cfg or IntegrationConfig()
    keys = [G.canonical() for G in graphs]
    if any(G.n > 2 for G in keys):
        raise ResourceGuard("weights implemented for n <= 2")
    misses = [G for G in dict.fromkeys(keys)
              if G.n and (G, cfg) not in _WEIGHT_CACHE]
    outcomes = {}
    if misses:
        from . import quadrature              # loads numpy, before any fork
        k = min(_usable_cpus(), len(misses))
        shares = [misses[j::k] for j in range(k)]
        for share, results in zip(shares, _in_workers(
                lambda share: _integrate(share, cfg), shares)):
            outcomes.update(zip(share, results))
    # a miss without an outcome comes after a failed miss of its share
    for G in misses:
        if isinstance(outcomes[G], Exception):
            raise outcomes[G]
        _WEIGHT_CACHE[G, cfg] = outcomes[G]
    return [_WEIGHT_CACHE[G, cfg] if G.n else
            WeightResult(1.0, 0.0, 0) for G in keys]


def _integrate(graphs, cfg):
    """quadrature.grid_weight(G, cfg) for each canonical graph in turn, up
    to the first that fails, which gives its exception instead: the one its
    integration raised, or IntegrationFailure if its error estimate exceeds
    cfg.tol."""
    from . import quadrature
    out = []
    try:
        for G in graphs:
            res = quadrature.grid_weight(G, cfg)
            if res.error_estimate > cfg.tol:
                raise IntegrationFailure(
                    f"weight error estimate {res.error_estimate:.2e} exceeds "
                    f"tolerance {cfg.tol:.2e}")
            out.append(res)
    except Exception as exc:
        out.append(exc)
    return out


def _usable_cpus():
    """The CPUs this process may run on (1 where the OS does not say)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _in_workers(work, shares):
    """[work(share) for share in shares], the first share worked in this
    process while each other runs in one forked child.

    A child pickles its result down a pipe and leaves by os._exit, so it
    neither prints nor runs its parent's cleanup.  Every child is reaped
    before this returns or raises; on an exception here the children left
    are killed first.  A child that ends without a result raises
    IntegrationFailure once all are reaped.  One share forks nothing."""
    import pickle
    import signal
    pipes, pids = [], []          # pids: the children not yet reaped
    try:
        for share in shares[1:]:
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            with open(write_end, "wb") as sink:
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        sink.write(pickle.dumps(work(share)))
                        sink.close()
                        code = 0
                    finally:
                        os._exit(code)
            pids.append(pid)
        results = [work(shares[0])]
        payloads = [pipe.read() for pipe in pipes]
        lost = []                 # exit statuses of children without one
        for payload in payloads:
            status = os.waitpid(pids[0], 0)[1]
            del pids[0]
            try:
                results.append(pickle.loads(payload))
            except Exception:         # no result, or one cut short
                lost.append(os.waitstatus_to_exitcode(status))
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if lost:
        raise IntegrationFailure(f"a weight worker exited with status "
                                 f"{lost[0]} and no result")
    return results


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
    """The constant bivector of a JSON file {"constant": square matrix} of
    size at most 2 * MAX_N, or the standard symplectic form on R^2 when path
    is empty."""
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
    for r, c in itertools.product(range(len(mat)), repeat=2):
        x = mat[r][c]
        if not abs(x) <= FLOAT_MAX:
            raise ValidationError(f"bivector entry [{r}][{c}] " + (
                "is an integer beyond the float range" if type(x) is int
                else f"= {x!r} is not finite"))
    if len(mat) > 2 * MAX_N:
        raise ResourceGuard(f"bivector has dimension {len(mat)}, above "
                            f"{2 * MAX_N}")
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
            if any(type(x) is int and abs(x) > FLOAT_MAX for x in
                   (coeff if isinstance(coeff, list) else [coeff])):
                raise ValidationError(f"coefficient of {exps!r} has an "
                                      f"integer beyond the float range")
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

class GGraph(namedtuple("GGraph", "weights edges aut")):
    """Weighted source/sink graph: weights are the internal vertex weights
    in canonical order, edges are ((u, v, multiplicity), ...) over the
    vertices "S", "T", 0..k, and aut is |Aut|."""

    __slots__ = ()

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
    up to isomorphism fixing source and sink, with |Aut| attached, from the
    rules of the module docstring, sorted by weight, weights and edges."""
    if Wmax > 3:
        raise ResourceGuard("enumeration supported for total weight <= 3")
    found = {}
    for k in range(max(0, 2 * Wmax - 2) + 1):
        pairs = [("S", "T")] + [("S", v) for v in range(k)]
        pairs += [(v, "T") for v in range(k)]
        pairs += [(u, v) for u in range(k) for v in range(u + 1, k)]
        for weights in itertools.product(range(-1, Wmax + 1), repeat=k):
            # 2|E| >= 3a + 2(k - a) + 2 for a weight -1 vertices
            lo = (weights.count(-1) + 2 * k + 3) // 2 if k else 0
            for ne in range(lo, Wmax - sum(weights) + 1):
                for combo in itertools.combinations_with_replacement(pairs, ne):
                    ends = [x for e in combo for x in e]
                    tails = [u for u, _ in combo]
                    if not all(v in tails and ends.count(v) > tails.count(v)
                               and (w >= 0 or ends.count(v) >= 3)
                               for v, w in enumerate(weights)):
                        continue
                    key, aut = _canonical(weights,
                                          {e: combo.count(e) for e in combo})
                    if key not in found:
                        pw, pm = key
                        found[key] = GGraph(weights=pw, aut=aut, edges=tuple(
                            (u, v, m) for (u, v), m in pm))
    return sorted(found.values(),
                  key=lambda G: (G.total_weight(), str(G.weights), str(G.edges)))


def _canonical(weights, mult):
    """The least relabelling by str of a graph (weights, {(u, v): m}) over
    the permutations of its internal vertices, and its |Aut|."""
    keys = []
    for perm in itertools.permutations(range(len(weights))):
        at = dict(enumerate(perm))
        pm = {(at.get(u, u), at.get(v, v)): m for (u, v), m in mult.items()}
        keys.append((tuple(weights[perm.index(i)] for i in range(len(perm))),
                     tuple(sorted(pm.items(), key=lambda kv: str(kv[0])))))
    # keys[0] is the identity relabelling
    aut = keys.count(keys[0]) * math.prod(map(math.factorial, mult.values()))
    return min(keys, key=str), aut


def gammelgaard_star(P, N):
    """Anti-Wick star table through nu^N (N <= 2) from weighted-graph
    contractions.

    Edge rule: each directed edge contracts an anti-holomorphic derivative at
    its tail against a holomorphic derivative at its head through the inverse
    metric g^{-1} of Phi_{-1}; internal vertices of weight k carry -Phi_k.
    Every coefficient jet must agree with karabegov_star(P, N) through total
    degree D - (N + 2) - 2, or CrossCheckFailure is raised; a budget that
    leaves that window below degree 0 for N >= 1 raises BudgetExceeded.
    """
    from .formal import BiDiffOp, BudgetExceeded, StarTable, tables_agree
    from .jets import inverse_metric
    from .karabegov import _anti_wick_ops
    if N > 2:
        raise ResourceGuard("graph expansion implemented through order 2")
    n, D = P.n, P.D
    window = D - (N + 2) - 2
    if N >= 1 and window < 0:
        raise BudgetExceeded(f"degree budget D={D} leaves the cross-check "
                             f"window D-(N+2)-2={window} below 0")
    g_inv = inverse_metric(P.phi_minus1)
    C = [BiDiffOp.pointwise(n, D)] + [BiDiffOp.zero(n, D)] * N
    for G in enumerate_ggraphs(N)[1:]:      # [0] is the empty graph, C_0
        C[G.total_weight()] += _ggraph_operator(G, P, g_inv)
    table = StarTable(C, "karabegov_anti_wick", "graph-expansion")
    recursion = StarTable(_anti_wick_ops(P, N, g_inv), table.convention)
    if not tables_agree(table, recursion, window):
        raise CrossCheckFailure("graph expansion disagrees with the recursion")
    return table


def _ggraph_operator(G, P, g_inv):
    """Contraction of one weighted graph into a bidifferential operator.

    An index assignment gives each edge an anti-holomorphic index at its
    tail and a holomorphic one at its head; it contributes only if every
    vertex jet -Phi_w keeps a nonzero derivative.  Each vertex keeps one
    exponent list, holo then anti, as an operator key.  The operator is
    scaled by 1/|Aut| once."""
    from .formal import BiDiffOp
    n = P.n
    slots = [(u, v) for u, v, m in G.edges for _ in range(m)]
    phis = [-(P.phi_k(w) if w >= 0 else P.phi_minus1) for w in G.weights]
    terms = []
    for assign in itertools.product(
            itertools.product(range(n), repeat=2), repeat=len(slots)):
        exps = {v: [0] * (2 * n) for v in ("S", "T", *range(len(phis)))}
        for (u, v), (b, a) in zip(slots, assign):
            exps[u][n + b] += 1
            exps[v][a] += 1
        coeff = 1
        for v, phi in enumerate(phis):
            vert = phi.diff_multi(tuple(exps[v]))
            if vert.is_zero():
                break
            coeff = vert * coeff
        else:
            for b, a in assign:
                coeff = g_inv[b][a] * coeff
            terms.append((coeff, tuple(exps["S"]), tuple(exps["T"])))
    return BiDiffOp(n, P.D, terms).scale(Fraction(1, G.aut))
