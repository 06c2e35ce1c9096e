"""Workload definitions: the starq invocations, their seeded inputs and the
checks every output must pass.

An op is a dict with
  name    unique label, also the key of its pinned sha256 in expected.json
  argv    starq argv
  expect  "pin": stdout must hash to the pinned sha256 (fixed argv, default
          seed); otherwise a function (stdout bytes) -> error or None, and
          the stdout must repeat byte for byte across the passes of a run.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

RUN_DIR = ".perfbench_run"
# The report echoes the potential path, so it is the same on every run.
DENSE_POTENTIAL = RUN_DIR + "/dense_potential.json"
DENSE_D = 12
HEIGHT = "(1 - zz) / (1+zz)"


def _op(name, argv, expect="pin"):
    return {"name": name, "argv": argv, "expect": expect}


# ---------------------------------------------------------------------------
# seeded inputs

def dense_potential(seed):
    """Real non-radial polynomial potential z zbar + sum c_ab z^a zbar^b,
    3 <= a+b <= 4, every monomial present, c_ab of modulus 1/4 or 1/4*sqrt2
    with seeded signs, c_ba = conj(c_ab).  The support and the coefficient
    sizes are fixed, so the work depends on the seed only through the signs
    (about +-10% per op)."""
    rng = random.Random(seed * 7919 + 1)
    coeffs = {(1, 1): (Fraction(1), Fraction(0))}
    for a in range(5):
        for b in range(a, 5):
            if not 3 <= a + b <= 4:
                continue
            re = Fraction(rng.choice((-1, 1)), 4)
            im = Fraction(0) if a == b else Fraction(rng.choice((-1, 1)), 4)
            coeffs[(a, b)] = (re, im)
            coeffs[(b, a)] = (re, -im)
    return coeffs


def potential_json(coeffs):
    def frac(x):
        return f"{x.numerator}/{x.denominator}"
    terms = [{"dz": [a], "dzbar": [b], "re": frac(re), "im": frac(im)}
             for (a, b), (re, im) in sorted(coeffs.items())]
    return {"phi_minus1": {"n": 1, "max_degree": DENSE_D, "terms": terms}}


BEREZIN_MONOMIALS = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2))


def berezin_observable(seed):
    """Bounded observable sum c_k z^a zbar^b / (1+zz)^2 over a fixed set of
    monomials with seeded complex integer coefficients, and a seeded point."""
    rng = random.Random(seed * 104729 + 2)
    coeffs = [complex(rng.choice((-3, -2, -1, 1, 2, 3)),
                      rng.choice((-2, -1, 1, 2))) for _ in BEREZIN_MONOMIALS]
    at = complex(round(rng.uniform(-1.5, 1.5), 3),
                 round(rng.uniform(-1.5, 1.5), 3))
    parts = [f"({c.real:g}{c.imag:+g}j)" + "".join(["*z"] * a + ["*zbar"] * b)
             for c, (a, b) in zip(coeffs, BEREZIN_MONOMIALS)]
    expr = "(" + " + ".join(parts) + ") / (1+zz)^2"
    return coeffs, at, expr


def _observable_at(coeffs, z):
    s = 1.0 / (1.0 + abs(z) ** 2)
    return sum(c * z ** a * z.conjugate() ** b * s ** 2
               for c, (a, b) in zip(coeffs, BEREZIN_MONOMIALS))


# ---------------------------------------------------------------------------
# checks for seeded outputs

def _poly_mul(p, q, max_deg):
    out = {}
    for (a1, b1), (r1, i1) in p.items():
        for (a2, b2), (r2, i2) in q.items():
            if a1 + b1 + a2 + b2 > max_deg:
                continue
            key = (a1 + a2, b1 + b2)
            r, i = out.get(key, (Fraction(0), Fraction(0)))
            out[key] = (r + r1 * r2 - i1 * i2, i + r1 * i2 + i1 * r2)
    return {k: v for k, v in out.items() if v != (0, 0)}


def _check_first_order(coeffs, window, f_key, g_key, sign, convention):
    """C_1 of a SOV table is sign * g^{-1} (d f)(d g) with g = dz dzbar Phi;
    check coeff * g == sign through the degree window the table keeps."""
    metric = {}
    for (a, b), (re, im) in coeffs.items():
        if a and b:
            metric[(a - 1, b - 1)] = (re * a * b, im * a * b)

    def check(stdout):
        res = json.loads(stdout)["results"]
        if res["convention"] != convention:
            return f"convention {res['convention']!r}"
        c0 = res["coefficients"][0]["terms"]
        if len(c0) != 1 or c0[0]["coeff"]["terms"] != [
                {"dz": [0], "dzbar": [0], "re": "1/1", "im": "0/1"}]:
            return "C_0 is not the pointwise product"
        c1 = [t for t in res["coefficients"][1]["terms"]
              if (t["f_dz"], t["f_dzbar"], t["g_dz"], t["g_dzbar"])
              == f_key + g_key]
        if len(c1) != 1:
            return "C_1 lacks its first-order term"
        ginv = {(t["dz"][0], t["dzbar"][0]):
                (Fraction(t["re"]), Fraction(t["im"]))
                for t in c1[0]["coeff"]["terms"]}
        prod = _poly_mul(ginv, metric, window)
        if prod != {(0, 0): (Fraction(sign), Fraction(0))}:
            return (f"C_1 coefficient is not {sign:+d}/g through degree "
                    f"{window}")
        return None
    return check


def _check_berezin(coeffs, at, m_list):
    exact = _observable_at(coeffs, at)

    def check(stdout):
        pts = json.loads(stdout)["results"]["points"]
        if [p["m"] for p in pts] != list(m_list):
            return "levels differ from --m-list"
        errs = [abs(complex(p["value"], p["imag"]) - exact) for p in pts]
        # B_m f = f + O(1/m): the top level must be far closer than the first
        if not errs[-1] <= errs[0] * m_list[0] / m_list[-1] * 4:
            return f"no O(1/m) convergence to f(at): errors {errs}"
        return None
    return check


def _check_exit_only(stdout):
    json.loads(stdout)
    return None


# ---------------------------------------------------------------------------
# workloads

M_BIG = (64, 128, 256, 512)
M_README = (8, 16, 32, 64, 128)
M_BEREZIN = (8, 16, 32, 64, 128, 256, 512)


def _mlist(ms):
    return ",".join(str(m) for m in ms)


def exact_tables(seed):
    """(ops, probes, inputs to write) for the exact-tables workload."""
    coeffs = dense_potential(seed)
    ops = [
        _op("karabegov-fs-6",
            ["star-karabegov", "--potential", "fs", "--order", "6"]),
        _op("bt-fs-4", ["star-bt", "--potential", "fs", "--order", "4"]),
        _op("bt-aniso-3", ["star-bt", "--potential", "aniso", "--order", "3"]),
        _op("gammelgaard-aniso-2",
            ["star-gammelgaard", "--potential", "aniso", "--order", "2"]),
        _op("readme-karabegov-flat-2",
            ["star-karabegov", "--potential", "flat", "--order", "2"]),
        _op("readme-bt-fs-2",
            ["star-bt", "--potential", "fs", "--order", "2",
             "--max-degree", "16"]),
        _op("karabegov-dense-3",
            ["star-karabegov", "--potential", DENSE_POTENTIAL, "--order", "3",
             "--max-degree", str(DENSE_D)],
            _check_first_order(coeffs, DENSE_D - 5, ([0], [1]), ([1], [0]),
                               1, "karabegov_anti_wick")),
        _op("bt-dense-2",
            ["star-bt", "--potential", DENSE_POTENTIAL, "--order", "2",
             "--max-degree", str(DENSE_D)],
            _check_first_order(coeffs, DENSE_D - 8, ([1], [0]), ([0], [1]),
                               -1, "wick")),
    ]
    files = {DENSE_POTENTIAL: json.dumps(potential_json(coeffs),
                                         sort_keys=True)}
    return ops, [], files


def numeric(seed):
    """(ops, probes, inputs to write) for the numeric workload."""
    coeffs, at, expr = berezin_observable(seed)
    at_text = f"{at.real:g}{at.imag:+g}j"
    ops = [
        _op("suite-bms-512",
            ["cp1-suite", "--suite", "bms", "--m-list", _mlist(M_BIG)]),
        _op("suite-berezin-512",
            ["cp1-suite", "--suite", "berezin", "--m-list", _mlist(M_BIG)]),
        _op("berezin-seeded-512",
            ["cp1-berezin", "--expr", expr, "--at=" + at_text,
             "--m-list", _mlist(M_BEREZIN)],
            _check_berezin(coeffs, at, M_BEREZIN)),
        _op("toeplitz-512",
            ["cp1-toeplitz", "--m", "512", "--expr", HEIGHT]),
        _op("weights-n2", ["weights", "--n", "2"]),
        _op("readme-kontsevich",
            ["star-kontsevich", "--order", "2", "--f-poly", "[[1,[2,1]]]",
             "--g-poly", "[[1,[1,1]]]"]),
        _op("readme-enumerate-n2", ["graphs-enumerate", "--n", "2"]),
        _op("readme-enumerate-weighted",
            ["graphs-enumerate", "--family", "weighted", "--wmax", "2"]),
        _op("readme-toeplitz-8", ["cp1-toeplitz", "--m", "8", "--expr",
                                  HEIGHT]),
        _op("readme-berezin",
            ["cp1-berezin", "--expr", HEIGHT, "--m-list", _mlist(M_README)]),
        _op("readme-suite-bms",
            ["cp1-suite", "--suite", "bms", "--m-list", _mlist(M_README)]),
    ]
    # Known defects: counted in failed_share, never timed.  They pass once
    # starq exits 0 with a well-formed report.
    probes = [
        _op("probe-readme-weights-mc",
            ["weights", "--n", "1", "--method", "mc", "--samples", "200000"],
            _check_exit_only),
        _op("probe-toeplitz-534",
            ["cp1-toeplitz", "--m", "534", "--expr", HEIGHT],
            _check_exit_only),
    ]
    return ops, probes, {}


CLI_WORKLOADS = {"exact-tables": exact_tables, "numeric": numeric}


# ---------------------------------------------------------------------------
# exact-assoc inputs (used by assoc_driver.py)

ASSOC_ORDER = 4
# Triples per potential.  Few triples make short passes (about 2.5 s), so a
# run reports the median of many passes.
ASSOC_TRIPLES = 2
# Truncation windows of the fs tables below which the defect must vanish
# (the coefficients are truncations of log(1 + z zbar)).
FS_WINDOWS = {"karabegov": 12, "bt": 4}


def random_jet_terms(rng, n, deg=2):
    """Every monomial of total degree <= deg, real and imaginary parts
    seeded integers of 5 bits with seeded signs, as {(holo, anti): (re, im)}.
    Fixed support, fixed sizes and generic values (chance cancellations are
    rare) keep the work from depending on the seed."""
    def mis(total):
        if n == 1:
            return [(d,) for d in range(total + 1)]
        return [(i, d - i) for d in range(total + 1) for i in range(d + 1)]
    keys = [(h, a) for h in mis(deg) for a in mis(deg)
            if sum(h) + sum(a) <= deg]

    def coeff():
        return rng.choice((-1, 1)) * rng.randint(16, 31)
    return {k: (coeff(), coeff()) for k in keys}
