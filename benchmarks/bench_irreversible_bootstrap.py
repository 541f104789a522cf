"""E15 (new result): bootstrap floors and the true minimum dynamo sizes.

The reproduction's closing result: SMP k-growth is dominated by 2-neighbor
bootstrap percolation, the torus's minimum percolating set has size n - 1
(vs the classic n on the open grid), and SMP monotone dynamos *achieve*
that floor with |C| = 4 for n = 3, 4, 5 — so the true answer to the
paper's minimum-size question on small square meshes is n - 1, not 2n - 2.
"""

import numpy as np
import pytest

from repro.core import (
    CACHED_FLOOR_WITNESSES,
    bootstrap_closure,
    floor_dynamo,
    is_monotone_dynamo,
    min_bootstrap_percolating_size,
    run_irreversible,
    theorem2_mesh_dynamo,
)
from repro.topology import OpenMesh, ToroidalMesh

from bench_helpers import once


@pytest.mark.parametrize("n", [3, 4, 5])
def test_torus_bootstrap_floor(benchmark, n):
    size, witness = once(
        benchmark, min_bootstrap_percolating_size, ToroidalMesh(n, n), max_size=n
    )
    assert size == n - 1
    benchmark.extra_info.update(n=n, torus_floor=size, open_grid_floor=n)


@pytest.mark.parametrize("n", [3, 4])
def test_open_grid_floor_is_n(benchmark, n):
    size, _ = once(
        benchmark, min_bootstrap_percolating_size, OpenMesh(n, n), max_size=n
    )
    assert size == n
    benchmark.extra_info.update(n=n, floor=size)


@pytest.mark.parametrize("n", sorted(CACHED_FLOOR_WITNESSES))
def test_floor_dynamos_achieve_the_floor(benchmark, n):
    def run():
        con = floor_dynamo(n)
        assert is_monotone_dynamo(con.topo, con.colors, con.k)
        return con

    con = benchmark(run)
    assert con.seed_size == n - 1
    benchmark.extra_info.update(
        n=n, size=n - 1, paper_bound=2 * n - 2, total_colors=con.num_colors
    )


def test_bootstrap_domination_sweep(benchmark, rng):
    """SMP-ever-k is inside the bootstrap closure over 300 random configs."""
    topo = ToroidalMesh(8, 8)
    configs = rng.integers(0, 4, size=(300, 64)).astype(np.int32)

    def run():
        violations = 0
        for colors in configs:
            closure = bootstrap_closure(topo, colors == 0)
            res = run_irreversible(topo, colors, 0, max_rounds=80)
            violations += not np.all(closure | ~(res.final == 0))
        return violations

    assert once(benchmark, run) == 0
    benchmark.extra_info.update(configs=300, violations=0)


def test_irreversible_vs_free_rounds(benchmark):
    """Irreversibility never slows a working dynamo (same wave, pinned)."""
    con = theorem2_mesh_dynamo(9, 9)

    def run():
        irr = run_irreversible(con.topo, con.colors, con.k)
        return irr

    irr = benchmark(run)
    assert irr.is_dynamo_run(con.k)
    from repro.engine import run_synchronous
    from repro.rules import SMPRule

    free = run_synchronous(con.topo, con.colors, SMPRule(), target_color=con.k)
    assert irr.rounds == free.rounds  # monotone run: pinning is a no-op
    benchmark.extra_info.update(rounds=irr.rounds)
