"""E8 / Theorems 1, 3, 5 lower bounds — exhaustive and randomized audits.

This bench records the reproduction's most significant finding: the
paper's monotone-dynamo lower bounds do NOT hold under the SMP rule as
stated.  Exhaustive search on the 3x3 mesh finds a monotone dynamo of
size 3 < m + n - 2 = 4 (and size 2 with four colors); random search finds
below-bound witnesses on 4x4 (size 3), 5x5 (size 5 < 8) and 6x6 (size
9 < 10).  The gap traces to Lemma 2: under the tie-keep semantics a
k-vertex with pairwise-distinct neighbor colors never recolors, so
monotone seeds need not be unions of k-blocks.

Recorded per torus: the true exhaustive minimum (tiny sizes) or the
random-search witness counts per seed size.
"""

import pytest

from repro.core import (
    exhaustive_min_dynamo_size,
    is_monotone_dynamo,
    lower_bound,
    random_dynamo_search,
)
from repro.topology import ToroidalMesh, TorusCordalis, TorusSerpentinus

from bench_helpers import once

_KINDS = {
    "mesh": ToroidalMesh,
    "cordalis": TorusCordalis,
    "serpentinus": TorusSerpentinus,
}


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_exhaustive_minimum_on_3x3(benchmark, kind):
    topo = _KINDS[kind](3, 3)

    size, _ = once(
        benchmark,
        exhaustive_min_dynamo_size,
        topo,
        num_colors=3,
        monotone_only=True,
        max_seed_size=5,
    )
    paper = lower_bound(kind, 3, 3)
    assert size is not None and size < paper
    benchmark.extra_info.update(
        kind=kind, true_minimum=size, paper_bound=paper, palette=3
    )


def test_exhaustive_minimum_3x3_four_colors(benchmark):
    topo = ToroidalMesh(3, 3)
    size, _ = once(
        benchmark,
        exhaustive_min_dynamo_size,
        topo,
        num_colors=4,
        monotone_only=True,
        max_seed_size=3,
    )
    assert size == 2
    benchmark.extra_info.update(true_minimum=size, paper_bound=4, palette=4)


def test_random_below_bound_scan_4x4(benchmark):
    """Random search alone already beats the 4x4 bound: seeds of size 3
    (below even the diagonal's 4) admit monotone dynamos at a rate of
    roughly one per 3k random complements."""
    topo = ToroidalMesh(4, 4)
    out = once(
        benchmark, random_dynamo_search, topo, 3, 5, 60_000, 0xD1CE,
        monotone_only=True,
    )
    found = sum(1 for _, mono in out.witnesses if mono)
    assert found > 0
    colors, _ = out.witnesses[0]
    assert is_monotone_dynamo(topo, colors, k=0)
    benchmark.extra_info.update(
        n=4, seed_size=3, paper_bound=6, witnesses=found, trials=out.examined
    )


@pytest.mark.parametrize("n", [4, 5, 6])
def test_diagonal_witnesses_below_bound(benchmark, n):
    """Deterministic witnesses: the cached diagonal dynamos certify size n
    against the 2n - 2 bound at every cached size."""
    from repro.core import diagonal_dynamo

    def run():
        con = diagonal_dynamo(n)
        assert is_monotone_dynamo(con.topo, con.colors, con.k)
        return con

    con = benchmark(run)
    assert con.seed_size == n < 2 * n - 2
    benchmark.extra_info.update(n=n, size=n, paper_bound=2 * n - 2)


def test_paper_constructions_still_meet_their_bounds(benchmark):
    """For balance: the paper's *constructions* are all genuine monotone
    dynamos of exactly the claimed sizes — only the claimed minimality
    fails."""
    from repro.core import build_minimum_dynamo, verify_construction

    def run():
        out = {}
        for kind in sorted(_KINDS):
            con = build_minimum_dynamo(kind, 9, 9)
            rep = verify_construction(con, check_conditions=False)
            assert rep.is_monotone_dynamo
            out[kind] = (con.seed_size, lower_bound(kind, 9, 9))
        return out

    sizes = benchmark(run)
    assert all(size == bound for size, bound in sizes.values())
    benchmark.extra_info.update(**{k: v[0] for k, v in sizes.items()})
