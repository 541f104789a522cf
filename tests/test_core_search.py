"""Exhaustive / randomized minimum-dynamo search tests.

The headline test machine-verifies Theorem 1 on the 3x3 toroidal mesh:
over *every* seed placement and *every* complement coloring with 3 colors,
no monotone dynamo smaller than m + n - 2 = 4 exists, and one of size 4
does.
"""

import numpy as np
import pytest

from repro.core import (
    count_configs,
    exhaustive_dynamo_search,
    exhaustive_min_dynamo_size,
    is_monotone_dynamo,
    random_dynamo_search,
    theorem1_mesh_lower_bound,
)
from repro.engine import ExecutionSettings
from repro.topology import ToroidalMesh


def test_count_configs():
    # C(9, 2) * 2^7 = 36 * 128
    assert count_configs(9, 2, 3) == 36 * 128


def test_refuses_oversized_enumeration():
    topo = ToroidalMesh(6, 6)
    with pytest.raises(ValueError):
        exhaustive_dynamo_search(topo, 5, 4, max_configs=1000)


@pytest.mark.slow
def test_theorem1_bound_fails_on_3x3_reproduction_finding():
    """Major reproduction finding: the Theorem-1 lower bound m + n - 2
    does NOT hold on the 3x3 toroidal mesh.  Exhaustive search over every
    seed placement and every 3-color complement finds a *monotone*
    0-dynamo of size 3 (the diagonal with a triangle-split complement);
    the paper's proof rests on Lemma 2 ("a monotone dynamo is a union of
    k-blocks"), which is false under the SMP tie-keep semantics — a
    k-vertex whose neighbors carry pairwise distinct colors never
    recolors even with zero k-neighbors.

    With 2 colors no dynamo of size <= 4 exists at all (non-k ties
    everywhere), consistent with Remark 1.
    """
    topo = ToroidalMesh(3, 3)
    size, outcomes = exhaustive_min_dynamo_size(
        topo, num_colors=3, monotone_only=True, max_seed_size=4
    )
    assert size == 3 < theorem1_mesh_lower_bound(3, 3)
    # sizes 1 and 2 were exhausted with no witness (|C| = 3)
    for out in outcomes[:-1]:
        assert out.exhaustive and not out.found_dynamo
    witness, monotone = outcomes[-1].witnesses[0]
    assert monotone
    assert is_monotone_dynamo(topo, witness, k=0)


def test_diagonal_witness_on_3x3_explicitly():
    """The explicit size-3 counterexample, pinned: diagonal seed, upper
    triangle one color, lower triangle another."""
    topo = ToroidalMesh(3, 3)
    colors = np.array(
        [
            [0, 1, 1],
            [2, 0, 1],
            [2, 2, 0],
        ],
        dtype=np.int32,
    ).reshape(-1)
    assert is_monotone_dynamo(topo, colors, k=0)
    assert (colors == 0).sum() == 3


@pytest.mark.slow
def test_3x3_with_four_colors_admits_size_two_dynamo():
    """Richer palettes push the true minimum even lower: |C| = 4 admits a
    monotone dynamo of size TWO on the 3x3 mesh."""
    topo = ToroidalMesh(3, 3)
    size, _ = exhaustive_min_dynamo_size(
        topo, num_colors=4, monotone_only=True, max_seed_size=3
    )
    assert size == 2


def test_exhaustive_finds_trivial_full_seed():
    topo = ToroidalMesh(3, 3)
    out = exhaustive_dynamo_search(topo, seed_size=9, num_colors=2)
    assert out.found_dynamo  # the all-k configuration is trivially a dynamo
    assert out.examined >= 1


def test_single_batch_witness_still_exhaustive():
    """Regression: the final flush after a completed enumeration used to
    flip ``exhaustive`` to False whenever it held a witness, so any
    search with ``total <= batch_size`` (a single batch) — or a witness
    in the last batch — reported wrong provenance to the census."""
    topo = ToroidalMesh(3, 3)
    # one single configuration: the trivial all-k seed; witness found,
    # and every configuration (all one of them) was examined
    out = exhaustive_dynamo_search(topo, seed_size=9, num_colors=2)
    assert out.found_dynamo
    assert out.examined == count_configs(9, 9, 2) == 1
    assert out.exhaustive


def test_last_batch_witness_still_exhaustive():
    """Full enumeration across several batches with witnesses: coverage is
    complete, so the outcome stays exhaustive."""
    topo = ToroidalMesh(3, 3)
    total = count_configs(9, 8, 3)
    out = exhaustive_dynamo_search(
        topo, seed_size=8, num_colors=3, stop_at_first=False,
        settings=ExecutionSettings(batch_size=4),
    )
    assert out.found_dynamo
    assert out.examined == total
    assert out.exhaustive


def test_exact_multiple_batch_witness_still_exhaustive():
    """Boundary case: when total is an exact multiple of batch_size the
    last batch flushes *inside* the enumeration loop; a stop_at_first
    witness there still covers every configuration."""
    topo = ToroidalMesh(3, 3)
    # 1 configuration, batch_size=1: the only batch flushes in-loop
    out = exhaustive_dynamo_search(
        topo, seed_size=9, num_colors=2, stop_at_first=True,
        settings=ExecutionSettings(batch_size=1),
    )
    assert out.found_dynamo
    assert out.examined == count_configs(9, 9, 2) == 1
    assert out.exhaustive


def test_spawned_seed_sequences_draw_distinct_trials():
    """SeedSequence spawn_key must reach the shard derivation: spawned
    children are documented seed material and must not replay their
    parent's streams."""
    topo = ToroidalMesh(3, 3)
    child_a, child_b = np.random.SeedSequence(7).spawn(2)
    shards = ExecutionSettings(shard_size=100)
    out_a = random_dynamo_search(topo, 3, 3, 500, child_a, settings=shards)
    out_b = random_dynamo_search(topo, 3, 3, 500, child_b, settings=shards)
    assert any(
        not np.array_equal(wa, wb)
        for (wa, _), (wb, _) in zip(out_a.witnesses, out_b.witnesses)
    ) or len(out_a.witnesses) != len(out_b.witnesses)


def test_early_stop_is_not_exhaustive():
    """stop_at_first cutting the enumeration short must keep reporting
    non-exhaustive coverage."""
    topo = ToroidalMesh(3, 3)
    out = exhaustive_dynamo_search(
        topo, seed_size=8, num_colors=3, stop_at_first=True,
        settings=ExecutionSettings(batch_size=4),
    )
    assert out.found_dynamo
    assert out.examined < count_configs(9, 8, 3)
    assert not out.exhaustive


def test_exhaustive_witnesses_verify(rng):
    topo = ToroidalMesh(3, 3)
    out = exhaustive_dynamo_search(
        topo, seed_size=4, num_colors=3, stop_at_first=True
    )
    assert out.found_dynamo
    colors, _ = out.witnesses[0]
    assert (colors == 0).sum() == 4
    res_ok = is_monotone_dynamo(topo, colors, k=0)
    # witness was not filtered for monotonicity here, only k-monochromatic
    from repro.engine import run_synchronous
    from repro.rules import SMPRule

    res = run_synchronous(topo, colors, SMPRule(), target_color=0)
    assert res.is_dynamo_run(0)
    assert res_ok == bool(res.monotone)


def test_random_search_finds_planted_dynamo():
    """Random search at the full-torus seed size must trivially succeed."""
    topo = ToroidalMesh(3, 3)
    out = random_dynamo_search(topo, seed_size=9, num_colors=3, trials=5, rng=0xC0FFEE)
    assert out.found_dynamo
    assert out.examined == 5
    assert not out.exhaustive


def test_random_search_finds_below_bound_dynamos_on_4x4():
    """The Theorem-1 violation persists at 4x4: random search readily
    finds monotone dynamos of size 5 < 6 = m + n - 2 (the diagonal-plus-
    one family), so the failure is not a 3x3 wraparound artifact."""
    topo = ToroidalMesh(4, 4)
    out = random_dynamo_search(
        topo, seed_size=5, num_colors=4, trials=5000, rng=0xC0FFEE,
        monotone_only=True,
    )
    assert out.found_monotone_dynamo
    colors, _ = out.witnesses[0]
    assert is_monotone_dynamo(topo, colors, k=0)
    assert (colors == 0).sum() == 5 < theorem1_mesh_lower_bound(4, 4)
