"""exact-assoc workload: a library driver for starq.formal.assoc_defect.

Usage: python3 perfbench/assoc_driver.py --seed N --seconds S
           [--setup-only] [--span-file PATH]

Set-up (timed by the caller from process start): import starq, build the
Karabegov and Berezin-Toeplitz tables through nu^4 for flat(14), aniso(14)
and fs(26), and draw ASSOC_TRIPLES seeded jet triples per potential.  Then
it runs passes until --seconds have elapsed (at least two); a pass evaluates
the associativity defect of every triple on both tables of its potential.
One JSON line per event goes to stdout.  With --span-file the span recorder
is installed before set-up, odd passes are traced and even passes are not,
and the spans are written to the file at the end.
"""

import argparse
import json
import random
import resource
import sys
import time
from fractions import Fraction

from ops import ASSOC_ORDER, ASSOC_TRIPLES, FS_WINDOWS, random_jet_terms


def emit(**fields):
    print(json.dumps(fields, sort_keys=True), flush=True)


def build(seed):
    from starq.jets import Jet, Scalar
    from starq.karabegov import (bt_star_from, flat_potential, fs_potential,
                                 karabegov_star)
    potentials = [("flat", flat_potential(14)),
                  ("aniso", flat_potential(14, n=2, weights=[1, 2])),
                  ("fs", fs_potential(26))]
    rng = random.Random(seed * 15485863 + 3)
    cases = []
    for name, P in potentials:
        triples = []
        for _ in range(ASSOC_TRIPLES):
            triples.append([
                Jet(P.n, P.D, {k: Scalar(Fraction(re), Fraction(im))
                               for k, (re, im)
                               in random_jet_terms(rng, P.n).items()})
                for _ in range(3)])
        for kind, maker in (("karabegov", karabegov_star),
                            ("bt", bt_star_from)):
            window = FS_WINDOWS[kind] if name == "fs" else None
            cases.append((f"{name}-{kind}", maker(P, ASSOC_ORDER), window,
                          triples))
    return cases


def run_pass(cases, assoc_defect):
    ops = failed = 0
    for label, table, window, triples in cases:
        for f, g, h in triples:
            ops += 1
            defect = assoc_defect(table, f, g, h)
            if window is not None:
                defect = [d.truncate(window) for d in defect]
            if not all(d.is_zero() for d in defect):
                failed += 1
    return ops, failed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--span-file", default="")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import starq.cli   # noqa: F401  (the same cold import every CLI run pays)
    import_s = time.perf_counter() - t0
    rec = None
    if args.span_file:
        import spans
        rec = spans.Recorder()
        spans.install(rec)
    from starq import formal
    cases = build(args.seed)
    emit(event="setup_done", t=time.perf_counter(), import_s=import_s)
    if args.setup_only:
        return 0

    start = time.perf_counter()
    p = 0
    while p < 2 or time.perf_counter() - start < args.seconds:
        traced = rec is not None and p % 2 == 1
        if rec is not None:
            rec.on = traced
            rec.pass_id = p
        w0, c0 = time.perf_counter(), time.process_time()
        ops, failed = run_pass(cases, formal.assoc_defect)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        emit(event="pass", p=p, traced=traced, wall_s=wall, cpu_s=cpu,
             rss_kb=rss_kb, ops=ops, failed=failed)
        p += 1
    if rec is not None:
        rec.dump(args.span_file, {"import_s": import_s})
    return 0


if __name__ == "__main__":
    sys.exit(main())
