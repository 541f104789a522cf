"""Scale-free extension tests (the paper's future-work experiment)."""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.engine import ExecutionSettings, RunStats
from repro.ext import (
    barabasi_albert_topology,
    run_scale_free_experiment,
    seed_vertices,
)

from helpers import rule_kernel_only


def test_ba_topology_structure(rng):
    topo = barabasi_albert_topology(100, 2, rng)
    assert topo.num_vertices == 100
    topo.validate()
    # BA(n, 2): (n - 2) * 2 edges... networkx gives (n - m) * m
    assert topo.num_edges() == 98 * 2
    # heavy tail: the max degree well above the mean
    assert topo.degrees.max() >= 3 * topo.degrees.mean()


def test_seed_strategies(rng):
    topo = barabasi_albert_topology(60, 2, rng)
    hubs = seed_vertices(topo, 5, "hubs", rng)
    assert len(hubs) == 5
    top5 = np.sort(topo.degrees[hubs])
    rest = np.sort(topo.degrees[np.setdiff1d(np.arange(60), hubs)])
    assert top5[0] >= rest[-1]  # hubs really are the top degrees
    rand = seed_vertices(topo, 5, "random", rng)
    assert len(set(int(v) for v in rand)) == 5
    weighted = seed_vertices(topo, 5, "degree-weighted", rng)
    assert len(set(int(v) for v in weighted)) == 5
    with pytest.raises(ValueError):
        seed_vertices(topo, 5, "psychic", rng)


def test_experiment_runs_and_reports(rng):
    out = run_scale_free_experiment(
        n=150, seed_fraction=0.1, strategy="hubs", rng=rng, max_rounds=200
    )
    assert out.num_vertices == 150
    assert out.seed_size == 15
    assert 0.0 <= out.final_k_fraction <= 1.0
    assert out.strategy == "hubs"


def test_hub_seeding_beats_random_on_average():
    """The scale-free headline: hub seeds convert more of the graph than
    equally-sized random seeds (averaged over instances)."""
    hub_total, rand_total = 0.0, 0.0
    for s in range(6):
        rng = np.random.default_rng(100 + s)
        hub_total += run_scale_free_experiment(
            n=200, seed_fraction=0.05, strategy="hubs", rng=rng
        ).final_k_fraction
        rng = np.random.default_rng(100 + s)
        rand_total += run_scale_free_experiment(
            n=200, seed_fraction=0.05, strategy="random", rng=rng
        ).final_k_fraction
    assert hub_total > rand_total


# ----------------------------------------------------------------------
# the batched rewiring: bitwise pins and the sharded census
# ----------------------------------------------------------------------
def test_experiment_bitwise_matches_prerefactor_scalar_path():
    """run_scale_free_experiment now executes through run_batch; at a
    fixed seed it must reproduce the historical scalar run_synchronous
    path bit for bit, on the compiled kernel and on the rule's own
    kernel, with the plan cache warm."""
    from repro.engine import clear_plan_cache, plan_cache_stats, run_synchronous
    from repro.rules import GeneralizedPluralityRule

    n, num_colors, frac, strategy = 150, 4, 0.05, "degree-weighted"
    # the historical implementation, hand-rolled: same rng draw order
    rng = np.random.default_rng(0x5EED5)
    topo = barabasi_albert_topology(n, 2, rng)
    k = 0
    others = np.arange(1, num_colors)
    colors = others[rng.integers(0, others.size, size=topo.num_vertices)].astype(
        np.int32
    )
    seeds = seed_vertices(topo, max(1, int(round(frac * n))), strategy, rng)
    colors[seeds] = k
    legacy = run_synchronous(
        topo, colors, GeneralizedPluralityRule(num_colors=num_colors),
        max_rounds=400, target_color=k,
    )
    clear_plan_cache()
    try:
        # the rule's own kernel, then the compiled one cold and warm
        for kernel in (rule_kernel_only, nullcontext, nullcontext):
            with kernel():
                out = run_scale_free_experiment(
                    n=n, seed_fraction=frac, strategy=strategy,
                    rng=np.random.default_rng(0x5EED5),
                )
            assert out.rounds == legacy.rounds, kernel
            assert out.converged == legacy.converged, kernel
            assert out.final_k_fraction == float((legacy.final == k).mean())
            assert out.monochromatic == bool(
                legacy.converged and (legacy.final == legacy.final[0]).all()
            )
        assert plan_cache_stats().misses >= 1  # batched path compiled a stepper
    finally:
        clear_plan_cache()


def test_census_bitwise_identical_at_any_process_count():
    from repro.ext import scale_free_takeover_census

    kwargs = dict(n=60, graphs=2, replicas=8, seed_fractions=(0.05,),
                  strategies=("hubs", "random"), seed=17)
    inline = scale_free_takeover_census(
        settings=ExecutionSettings(processes=0), **kwargs
    )
    pooled = scale_free_takeover_census(
        settings=ExecutionSettings(processes=2), **kwargs
    )
    assert inline.cells == pooled.cells


def test_census_backend_invariant():
    from repro.ext import scale_free_takeover_census

    kwargs = dict(n=60, graphs=2, replicas=8, seed_fractions=(0.05,),
                  strategies=("hubs",), seed=17)
    with rule_kernel_only():
        reference = scale_free_takeover_census(**kwargs)
    assert reference.cells == scale_free_takeover_census(**kwargs).cells


def test_census_db_cache_round_trip(tmp_path):
    from repro.ext import scale_free_takeover_census
    from repro.io import WitnessDB

    path = tmp_path / "w.jsonl"
    kwargs = dict(n=60, graphs=2, replicas=8, seed_fractions=(0.05, 0.1),
                  strategies=("hubs",), seed=17)
    first = scale_free_takeover_census(db=WitnessDB(path), **kwargs)
    assert first.run_stats == RunStats(cells=2, records_appended=2)
    second = scale_free_takeover_census(db=WitnessDB(path), **kwargs)
    assert second.run_stats == RunStats(cells=2, cache_hits=2)
    assert all(c.from_cache for c in second.cells)
    for a, b in zip(first.cells, second.cells):
        assert a.as_row() == b.as_row()
    # a different definition key misses the cache
    third = scale_free_takeover_census(
        db=WitnessDB(path),
        **{**kwargs, "seed": 18},
    )
    assert third.run_stats.cache_hits == 0
    assert third.run_stats.records_appended == 2


def test_census_validates_inputs():
    from repro.ext import scale_free_takeover_census

    with pytest.raises(ValueError, match="unknown strategy"):
        scale_free_takeover_census(n=20, strategies=("psychic",))
    with pytest.raises(ValueError, match="at least 2 colors"):
        scale_free_takeover_census(n=20, num_colors=1)
    with pytest.raises(ValueError, match="must be"):
        scale_free_takeover_census(n=0)
