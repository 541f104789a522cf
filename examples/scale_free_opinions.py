#!/usr/bin/env python
"""Future work, implemented: SMP opinion dynamics beyond the torus.

The paper's conclusions propose running the SMP protocol on scale-free
networks.  This example compares hub, degree-weighted and random seeding
on Barabasi-Albert graphs (who should get the free samples?).

Run:  python examples/scale_free_opinions.py
"""

import numpy as np

from repro.ext import run_scale_free_experiment


def seeding_strategies() -> None:
    print("=== SMP on scale-free networks: seeding strategies ===")
    print(f"{'strategy':18s} {'seed':>5s} {'final k-share':>14s} {'rounds':>7s}")
    for strategy in ("hubs", "degree-weighted", "random"):
        shares, rounds = [], []
        for s in range(5):
            out = run_scale_free_experiment(
                n=400,
                m_attach=2,
                seed_fraction=0.05,
                strategy=strategy,
                rng=np.random.default_rng(1000 + s),
            )
            shares.append(out.final_k_fraction)
            rounds.append(out.rounds)
        print(
            f"{strategy:18s} {out.seed_size:>5d} "
            f"{np.mean(shares):>13.1%} {np.mean(rounds):>7.1f}"
        )
    print()
    print("Hubs dominate plurality counts: the same 5% budget converts far")
    print("more of the graph when it targets high-degree vertices — the")
    print("scale-free analogue of a well-placed dynamo.")


def main() -> None:
    seeding_strategies()


if __name__ == "__main__":
    main()
