#!/usr/bin/env python3
"""Semiclassical slope scan on the sphere: operator-norm gap, commutator and
product defects, and the averaging-transform defect, fitted against 1/m.
Emits plot-ready CSV on stdout.
"""

import argparse

import numpy as np

from starq.cp1 import berezin_defect_series, bms_suite
from starq.symbols import coord_x_observable, height_observable, laplacian_fn


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m-list", default="8,16,32,64,128")
    ap.add_argument("--points", type=int, default=12)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()
    m_list = tuple(int(x) for x in args.m_list.split(","))

    h, x = height_observable(), coord_x_observable()
    rng = np.random.default_rng(args.seed)
    cth = rng.uniform(-0.9, 0.9, args.points)
    phi = rng.uniform(0, 2 * np.pi, args.points)
    pts = np.sqrt((1 - cth) / (1 + cth)) * np.exp(1j * phi)

    named = dict(zip(("norm_gap", "commutator", "product"),
                     bms_suite(h, x, m_list)))
    named["averaging"] = berezin_defect_series(h, laplacian_fn(h), pts, m_list)

    print("series,m,value,fit_limit,fit_slope,fit_residual")
    for name, series in named.items():
        limit, slope, resid = series.fit
        for m, value in series.points:
            print(f"{name},{m},{value:.12e},{limit:.6e},{slope:.4f},{resid:.2e}")


if __name__ == "__main__":
    main()
