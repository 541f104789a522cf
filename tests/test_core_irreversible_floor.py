"""Irreversible dynamos, bootstrap domination, and the floor results."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CACHED_FLOOR_WITNESSES,
    bootstrap_closure,
    bootstrap_percolates,
    floor_dynamo,
    floor_size,
    is_monotone_dynamo,
    min_bootstrap_percolating_size,
    run_irreversible,
    theorem2_mesh_dynamo,
    verify_floor_witnesses,
)
from repro.engine import run_batch, run_synchronous
from repro.rules import LinearThresholdRule, SMPRule
from repro.topology import OpenMesh, ToroidalMesh

from helpers import TORUS_KINDS


# ----------------------------------------------------------------------
# Irreversible runs
# ----------------------------------------------------------------------
def test_irreversible_is_monotone_by_construction(rng):
    topo = ToroidalMesh(5, 5)
    for _ in range(5):
        colors = rng.integers(0, 4, size=25).astype(np.int32)
        res = run_irreversible(topo, colors, k=0)
        assert res.monotone is True


def test_irreversible_dominates_reversible_k_set(rng):
    """Freezing k can only help k: the irreversible final k-set contains
    the reversible one whenever the reversible run is itself monotone."""
    con = theorem2_mesh_dynamo(6, 6)
    rev = run_synchronous(con.topo, con.colors, SMPRule(), target_color=con.k)
    irr = run_irreversible(con.topo, con.colors, con.k)
    assert rev.monotone and irr.converged
    assert np.all((irr.final == con.k) | ~(rev.final == con.k))


def test_irreversible_rescues_eroding_seed():
    """The phi-collapsed configuration erodes under free SMP; with k
    absorbing the same configuration keeps every seed vertex."""
    from repro.core import phi_collapse
    from repro.rules.majority import BLACK

    con = theorem2_mesh_dynamo(6, 6)
    bi = phi_collapse(con.colors, con.k)
    free = run_synchronous(con.topo, bi, SMPRule(), target_color=BLACK)
    assert free.monotone is False
    irr = run_synchronous(
        con.topo, bi, SMPRule(), target_color=BLACK, irreversible_color=BLACK
    )
    assert irr.monotone is True
    assert np.all(irr.final[bi == BLACK] == BLACK)


# ----------------------------------------------------------------------
# Bootstrap domination
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_smp_growth_dominated_by_bootstrap(seed):
    """Every vertex that ever becomes k lies in the 2-bootstrap closure of
    the initial k-set — the bridge behind the floor results."""
    rng = np.random.default_rng(seed)
    topo = ToroidalMesh(5, 5)
    colors = rng.integers(0, 4, size=25).astype(np.int32)
    closure = bootstrap_closure(topo, colors == 0)
    res = run_synchronous(topo, colors, SMPRule(), record=True, max_rounds=60)
    ever_k = np.zeros(25, dtype=bool)
    for state in res.trajectory:
        ever_k |= state == 0
    assert np.all(closure | ~ever_k)


def test_bootstrap_closure_basics(torus_kind):
    topo = TORUS_KINDS[torus_kind](4, 4)
    # a 2x2 square is bootstrap-stable but on a 4x4 torus it percolates
    # diagonally via wraparound only when threshold allows; just check
    # monotonicity of the closure operator
    seed = np.zeros(16, dtype=bool)
    seed[:4] = True  # one full row
    closure_row = bootstrap_closure(topo, seed)
    seed2 = seed.copy()
    seed2[5] = True
    closure_bigger = bootstrap_closure(topo, seed2)
    assert np.all(closure_bigger | ~closure_row)  # monotone operator
    assert closure_row.sum() >= 4


def test_full_seed_percolates(torus_kind):
    topo = TORUS_KINDS[torus_kind](3, 3)
    assert bootstrap_percolates(topo, np.arange(9))


@pytest.mark.parametrize("n,floor", [(3, 2), (4, 3)])
def test_simple_threshold_rule_is_two_neighbor_bootstrap(rng, torus_kind, n, floor):
    """On the degree-4 tori the CLI's ``threshold`` rule (``"simple"``:
    activate on ceil(4/2) = 2 active neighbors) is exactly 2-neighbor
    bootstrap percolation: its fixed point is the seed's closure row for
    row, so both share the bootstrap floor."""
    topo = TORUS_KINDS[torus_kind](n, n)
    seeds = rng.integers(0, 2, size=(300, topo.num_vertices)).astype(np.int32)
    res = run_batch(topo, seeds, LinearThresholdRule("simple"))
    assert res.converged.all()
    for row, final in zip(seeds, res.final):
        assert np.array_equal(final == 1, bootstrap_closure(topo, row == 1, 2))
    size, witness = min_bootstrap_percolating_size(topo, max_size=n)
    assert size == floor
    seed = np.zeros((1, topo.num_vertices), dtype=np.int32)
    seed[0, witness] = 1
    assert run_batch(topo, seed, LinearThresholdRule("simple")).final.all()


# ----------------------------------------------------------------------
# Floors
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n,expected", [(3, 2), (4, 3), (5, 4)])
def test_torus_bootstrap_floor_exact(n, expected):
    size, witness = min_bootstrap_percolating_size(
        ToroidalMesh(n, n), max_size=n
    )
    assert size == expected == floor_size(n)
    assert bootstrap_percolates(ToroidalMesh(n, n), witness)


@pytest.mark.parametrize("n", [3, 4])
def test_open_mesh_floor_is_n(n):
    """Without wraparound the classic perimeter bound holds: the open
    n x n grid needs n seeds (the torus needs only n - 1)."""
    size, _ = min_bootstrap_percolating_size(OpenMesh(n, n), max_size=n)
    assert size == n


def test_open_mesh_diagonal_is_classic_minimum():
    om = OpenMesh(5, 5)
    diag = [om.vertex_index(i, i) for i in range(5)]
    assert bootstrap_percolates(om, np.asarray(diag))
    assert not bootstrap_percolates(om, np.asarray(diag[:4]))


def test_floor_witnesses_verify():
    assert verify_floor_witnesses()


@pytest.mark.parametrize("n", sorted(CACHED_FLOOR_WITNESSES))
def test_floor_dynamo_constructions(n):
    con = floor_dynamo(n)
    assert con is not None
    assert con.seed_size == n - 1 < con.size_lower_bound
    assert is_monotone_dynamo(con.topo, con.colors, con.k)
    assert con.num_colors <= 4


def test_floor_dynamo_unknown_size():
    assert floor_dynamo(9) is None
    with pytest.raises(ValueError):
        floor_size(2)


def test_no_smp_dynamo_below_floor():
    """Soundness of the floor as a bound: on the 4x4 no seed of size 2
    even bootstrap-percolates, so no SMP dynamo of size 2 can exist."""
    from itertools import combinations

    topo = ToroidalMesh(4, 4)
    assert all(
        not bootstrap_percolates(topo, np.asarray(s))
        for s in combinations(range(16), 2)
    )
