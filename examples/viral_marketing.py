#!/usr/bin/env python
"""Viral marketing: target set selection vs dynamo seeding.

The paper frames multi-colored dynamos as an extension of Target Set
Selection — pick the cheapest set of early adopters whose influence
converts the whole network.  This example runs both machineries on the
same torus "community":

1. classic TSS — on a degree-4 torus the simple-majority linear threshold
   model is 2-neighbor bootstrap percolation, so the exact minimum target
   set is the bootstrap floor; a random seed of the same size typically
   stalls;
2. multi-color SMP — the Theorem-4 minimum dynamo as a "campaign" seeding
   one product color against three competitor colors.

Run:  python examples/viral_marketing.py
"""

import numpy as np

from repro import SMPRule, TorusCordalis, run_synchronous, theorem4_cordalis_dynamo
from repro.core import bootstrap_closure, min_bootstrap_percolating_size
from repro.viz import render_grid


def classic_tss(topo: TorusCordalis) -> None:
    print("=== classic TSS (linear threshold = 2-neighbor bootstrap) ===")
    size, witness = min_bootstrap_percolating_size(topo)
    active = bootstrap_closure(topo, witness)
    print(f"exact minimum target set: {size} seeds {witness.tolist()}")
    print(f"activates {int(active.sum())}/{topo.num_vertices} vertices")
    rng = np.random.default_rng(3)
    scatter = rng.choice(topo.num_vertices, size=size, replace=False)
    reached = int(bootstrap_closure(topo, scatter).sum())
    print(f"random seeds {sorted(scatter.tolist())}: "
          f"activates {reached}/{topo.num_vertices} vertices")
    print()


def dynamo_campaign() -> None:
    print("=== multi-color campaign (SMP-Protocol, Theorem 4) ===")
    con = theorem4_cordalis_dynamo(6, 9)
    print(f"product color k = {con.k}; competitors: {con.palette[1:]}")
    print(f"campaign seeds: {con.seed_size} vertices "
          f"(theoretical minimum = {con.size_lower_bound})")
    print(render_grid(con.topo, con.colors, con.k, seed=con.seed))
    res = run_synchronous(con.topo, con.colors, SMPRule(), target_color=con.k)
    print(f"-> {res.summary()}")
    print(f"   every vertex adopted color {con.k} after {res.rounds} rounds "
          f"(empirical law predicts {con.empirical_rounds})")
    print()


def bad_campaign() -> None:
    print("=== the same budget, badly placed ===")
    con = theorem4_cordalis_dynamo(6, 9)
    rng = np.random.default_rng(7)
    colors = con.colors.copy()
    # scatter the same number of k-seeds uniformly instead of the row shape
    colors[con.seed] = np.asarray(con.palette[1:])[
        rng.integers(0, len(con.palette) - 1, size=con.seed_size)
    ]
    scatter = rng.choice(con.topo.num_vertices, size=con.seed_size, replace=False)
    colors[scatter] = con.k
    res = run_synchronous(con.topo, colors, SMPRule(), target_color=con.k)
    final_share = float((res.final == con.k).mean())
    print(f"random placement of {con.seed_size} seeds: {res.summary()}")
    print(f"final market share of color {con.k}: {final_share:.0%}")
    print()
    print("Takeaway: with the minimum budget, *placement* is everything —")
    print("the Theorem-4 row shape converts 100% of the torus, a random")
    print("scatter of the same size typically stalls far below that.")


def main() -> None:
    classic_tss(TorusCordalis(4, 5))
    dynamo_campaign()
    bad_campaign()


if __name__ == "__main__":
    main()
