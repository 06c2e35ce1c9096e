#!/usr/bin/env python3
"""Numerically integrate the configuration-space weights of all admissible
graphs at orders 1 and 2 and tabulate grid vs Monte Carlo backends.
"""

import argparse

from starq import QUADRATURE_FIELDS
from starq.graphs import (
    IntegrationConfig, enumerate_kgraphs, kontsevich_weight,
)


def main():
    defaults = dict(QUADRATURE_FIELDS)
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--orders", default="1,2")
    ap.add_argument("--grid-nodes", type=int, default=defaults["grid_nodes"])
    ap.add_argument("--samples", type=int, default=defaults["samples"])
    ap.add_argument("--seed", type=int, default=defaults["seed"])
    args = ap.parse_args()

    grid = IntegrationConfig(method="grid", grid_nodes=args.grid_nodes,
                             seed=args.seed, tol=1.0)
    mc = IntegrationConfig(method="mc", samples=args.samples,
                           seed=args.seed, tol=1.0)
    print("order,targets,parity,grid_value,grid_err,mc_value,mc_err")
    for n in (int(x) for x in args.orders.split(",")):
        for g in enumerate_kgraphs(n):
            wg = kontsevich_weight(g, grid)
            wm = kontsevich_weight(g, mc)
            print(f"{n},{g.targets!r},{g.order_parity()},"
                  f"{wg.value:.6f},{wg.error_estimate:.2e},"
                  f"{wm.value:.6f},{wm.error_estimate:.2e}")


if __name__ == "__main__":
    main()
