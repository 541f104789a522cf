"""E12: the future-work extension — SMP on scale-free graphs.

No paper numbers exist for this (it is one of the conclusions' open
questions); the bench records the qualitative outcome the paper
anticipates: hub seeding dominates random seeding on scale-free graphs.
"""

import numpy as np

from repro.ext import run_scale_free_experiment

from bench_helpers import once


def test_hub_vs_random_seeding(benchmark):
    def run():
        hub = rand = 0.0
        for s in range(4):
            hub += run_scale_free_experiment(
                n=300, seed_fraction=0.05, strategy="hubs",
                rng=np.random.default_rng(s),
            ).final_k_fraction
            rand += run_scale_free_experiment(
                n=300, seed_fraction=0.05, strategy="random",
                rng=np.random.default_rng(s),
            ).final_k_fraction
        return hub / 4, rand / 4

    hub_frac, rand_frac = once(benchmark, run)
    assert hub_frac > rand_frac
    benchmark.extra_info.update(
        hub_fraction=round(hub_frac, 3), random_fraction=round(rand_frac, 3)
    )
