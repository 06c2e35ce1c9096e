"""Span recorder that traces starq from outside the package.

`install` wraps the public starq functions and methods that `targets`
lists and rebinds every name that refers to the original, in every loaded
starq module (and, for methods, every alias on the class).  While the
recorder is on, each call records one span: name, start and end
(perf_counter_ns), the enclosing traced span, the pass id and two integer
counters set by a per-target probe.  Spans stay in memory until `dump`
writes them out as one .npz file; `summarise` turns them into per-layer
numbers.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter_ns

import numpy as np

STARQ_MODULES = ("starq.jets", "starq.formal", "starq.karabegov",
                 "starq.graphs", "starq.cp1", "starq.cli")


# Probes run after the span's end time is taken.  `pre(args)` returns state
# handed to `post(args, kwargs, result, state)`, which returns the span's two
# counters (value, flag).

def _mul_terms(args, kwargs, result, state):
    return len(getattr(result, "terms", ())), 0


def _precompose_distinct(seen, keep):
    def post(args, kwargs, result, state):
        key = tuple(id(a) for a in args)
        if key in seen:
            return 0, 0
        seen.add(key)
        keep.append(args)   # pin the operands so their ids are not reused
        return 0, 1
    return post


def _postcompose_identity(args, kwargs, result, state):
    P = args[1] if len(args) > 1 else kwargs["P"]
    if len(P.terms) != 1:
        return 0, 0
    coeff, holo, anti = P.terms[0]
    is_id = (not any(holo) and not any(anti) and len(coeff.terms) == 1
             and coeff.constant_term() == 1)
    return 0, int(is_id)


def _weight_cache_size(args):
    return len(sys.modules["starq.graphs"]._WEIGHT_CACHE)


def _weight_hit_and_cells(args, kwargs, result, state):
    if _weight_cache_size(args) == state:      # cache did not grow: a hit
        return 0, 1
    return result.samples_or_cells, 0


def _grid_bytes(args, kwargs, result, state):
    # Computed, not measured: the context's quadrature grid keeps one
    # complex128 node and one float64 weight per node, K x K nodes with
    # K = quad_nodes or 2m + 6.
    m = args[0] if args else kwargs["m"]
    nodes = (args[1] if len(args) > 1 else kwargs.get("quad_nodes")) \
        or 2 * m + 6
    return 24 * nodes * nodes, 0


def _payload_bytes(args, kwargs, result, state):
    return len(result), 0


def targets():
    """(span name, module, qualified name, pre, post) for every wrapped API."""
    seen, keep = set(), []
    return [
        ("jets.mul", "starq.jets", "Jet.__mul__", None, _mul_terms),
        ("jets.add", "starq.jets", "Jet.__add__", None, None),
        ("jets.diff_multi", "starq.jets", "Jet.diff_multi", None, None),
        ("formal.compose", "starq.formal", "DiffOp.compose", None, None),
        ("formal.apply", "starq.formal", "BiDiffOp.apply", None, None),
        ("formal.precompose", "starq.formal", "BiDiffOp.precompose", None,
         _precompose_distinct(seen, keep)),
        ("formal.postcompose", "starq.formal", "BiDiffOp.postcompose", None,
         _postcompose_identity),
        ("formal.transform", "starq.formal", "transform_from_star", None,
         None),
        ("formal.invert", "starq.formal", "invert_transform", None, None),
        ("formal.conjugate", "starq.formal", "conjugate_star", None, None),
        ("karabegov.left_mult", "starq.karabegov", "left_mult_operator",
         None, None),
        ("karabegov.star", "starq.karabegov", "karabegov_star", None, None),
        ("karabegov.bt", "starq.karabegov", "bt_star_from", None, None),
        ("graphs.weight", "starq.graphs", "kontsevich_weight",
         _weight_cache_size, _weight_hit_and_cells),
        ("graphs.enumerate", "starq.graphs", "enumerate_kgraphs", None,
         None),
        ("graphs.enumerate", "starq.graphs", "enumerate_ggraphs", None,
         None),
        ("graphs.kontsevich_star", "starq.graphs", "kontsevich_star", None,
         None),
        ("graphs.gammelgaard", "starq.graphs", "gammelgaard_star", None,
         None),
        ("cp1.make_context", "starq.cp1", "make_context", None, _grid_bytes),
        ("cp1.toeplitz", "starq.cp1", "toeplitz_matrix", None, None),
        ("cp1.operator_norm", "starq.cp1", "operator_norm", None, None),
        ("cp1.covariant_symbol", "starq.cp1", "covariant_symbol", None,
         None),
        ("cli.parse", "starq.cli", "config_from_args", None, None),
        ("cli.run", "starq.cli", "run", None, None),
        ("cli.emit", "starq.cli", "emit", None, _payload_bytes),
    ]


class Recorder:
    """In-memory span store; one instance per traced process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.columns = {k: [] for k in
                        ("name", "start", "end", "parent", "pass", "value",
                         "flag")}
        self._stack = [-1]
        self.pass_id = -1
        self.on = True

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, pre=None, post=None):
        nid = self.name_id(name)
        cols = self.columns
        c_name, c_start, c_end = cols["name"], cols["start"], cols["end"]
        c_parent, c_pass = cols["parent"], cols["pass"]
        c_value, c_flag = cols["value"], cols["flag"]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            i = len(c_name)
            c_name.append(nid)
            c_parent.append(stack[-1])
            c_pass.append(self.pass_id)
            c_start.append(0)
            c_end.append(0)
            c_value.append(0)
            c_flag.append(0)
            state = pre(args) if pre else None
            stack.append(i)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                c_start[i] = t0
                c_end[i] = t1
            if post:
                c_value[i], c_flag[i] = post(args, kwargs, result, state)
            return result

        return traced

    def dump(self, path, meta):
        arrays = {k: np.asarray(v, dtype=np.int64)
                  for k, v in self.columns.items()}
        arrays["names"] = np.asarray(json.dumps(self.names))
        arrays["meta"] = np.asarray(json.dumps(meta))
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)


def install(rec):
    """Wrap every target and rebind each reference to it across starq."""
    modules = [importlib.import_module(m) for m in STARQ_MODULES]
    for name, modname, qualname, pre, post in targets():
        owner = sys.modules[modname]
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        original = owner.__dict__[parts[-1]]
        wrapper = rec.wrap(name, original, pre, post)
        if isinstance(owner, type):
            for attr, val in list(owner.__dict__.items()):
                if val is original:
                    setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)


def load(path):
    with np.load(path) as z:
        spans = {k: z[k] for k in ("name", "start", "end", "parent", "pass",
                                   "value", "flag")}
        names = json.loads(str(z["names"]))
        meta = json.loads(str(z["meta"]))
    return spans, names, meta


def self_times_ns(spans):
    """Duration of each span minus the time its direct child spans cover."""
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    parent = spans["parent"]
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    return dur - child


def summarise(spans, names):
    """{span name: {calls, self_ns, value, flag}} over the given spans."""
    selfs = self_times_ns(spans)
    out = {}
    for nid, name in enumerate(names):
        sel = spans["name"] == nid
        calls = int(sel.sum())
        out[name] = {"calls": calls, "self_ns": int(selfs[sel].sum()),
                     "value": int(spans["value"][sel].sum()),
                     "flag": int(spans["flag"][sel].sum())}
    return out
