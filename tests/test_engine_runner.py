"""Synchronous engine tests: convergence, cycles, tracking, freezing."""

import numpy as np
import pytest

from repro.engine import default_round_cap, run_synchronous
from repro.rules import BLACK, WHITE, ReverseSimpleMajority, SMPRule
from repro.topology import ToroidalMesh

from helpers import TORUS_KINDS, random_coloring


def test_monochromatic_input_converges_at_round_zero(torus_kind):
    topo = TORUS_KINDS[torus_kind](4, 4)
    colors = np.full(16, 2, dtype=np.int32)
    res = run_synchronous(topo, colors, SMPRule())
    assert res.converged
    assert res.fixed_point_round == 0
    assert res.rounds == 0
    assert res.monochromatic and res.monochromatic_color == 2
    assert res.cycle_length == 1


def test_rounds_equal_last_change_round():
    from repro.core import theorem2_mesh_dynamo

    con = theorem2_mesh_dynamo(6, 6)
    res = run_synchronous(con.topo, con.colors, SMPRule(), target_color=con.k)
    assert res.converged
    assert res.fixed_point_round == int(res.last_change.max())
    assert res.rounds == res.fixed_point_round


def test_is_dynamo_run():
    from repro.core import theorem4_cordalis_dynamo

    con = theorem4_cordalis_dynamo(4, 4)
    res = run_synchronous(con.topo, con.colors, SMPRule(), target_color=con.k)
    assert res.is_dynamo_run(con.k)
    assert not res.is_dynamo_run(con.k + 1)


def test_max_rounds_cap_respected():
    from repro.core import theorem4_cordalis_dynamo

    con = theorem4_cordalis_dynamo(8, 8)  # needs 24 rounds
    res = run_synchronous(con.topo, con.colors, SMPRule(), max_rounds=3)
    assert not res.converged
    assert res.rounds == 3
    assert res.fixed_point_round is None


def test_negative_max_rounds_rejected():
    topo = ToroidalMesh(3, 3)
    with pytest.raises(ValueError):
        run_synchronous(topo, np.zeros(9, dtype=np.int32), SMPRule(), max_rounds=-1)


def test_wrong_length_coloring_rejected():
    topo = ToroidalMesh(3, 3)
    with pytest.raises(ValueError):
        run_synchronous(topo, np.zeros(8, dtype=np.int32), SMPRule())


def test_negative_colors_rejected():
    topo = ToroidalMesh(3, 3)
    with pytest.raises(ValueError):
        run_synchronous(topo, np.full(9, -1, dtype=np.int32), SMPRule())


def test_trajectory_recording():
    from repro.core import theorem2_mesh_dynamo

    con = theorem2_mesh_dynamo(5, 5)
    res = run_synchronous(
        con.topo, con.colors, SMPRule(), target_color=con.k, record=True
    )
    assert len(res.trajectory) == res.rounds + 1
    assert np.array_equal(res.trajectory[0], con.colors)
    assert np.array_equal(res.trajectory[-1], res.final)
    # each recorded state is one step of the previous
    rule = SMPRule()
    for a, b in zip(res.trajectory, res.trajectory[1:]):
        assert np.array_equal(rule.step(a, con.topo), b)


def test_first_and_last_change_tracking():
    from repro.core import theorem2_mesh_dynamo

    con = theorem2_mesh_dynamo(5, 5)
    res = run_synchronous(con.topo, con.colors, SMPRule(), target_color=con.k)
    # monotone dynamo: every vertex changes at most once
    assert np.array_equal(res.first_change, res.last_change)
    assert np.all(res.last_change[con.seed] == 0)
    assert np.all(res.last_change[~con.seed] > 0)


def test_monotone_flag_true_on_construction():
    from repro.core import theorem6_serpentinus_dynamo

    con = theorem6_serpentinus_dynamo(5, 4)
    res = run_synchronous(con.topo, con.colors, SMPRule(), target_color=con.k)
    assert res.monotone is True


def test_monotone_flag_false_when_seed_abandons():
    # a lone k vertex surrounded by a hostile triple recolors away
    topo = ToroidalMesh(3, 3)
    colors = np.zeros(9, dtype=np.int32)
    k = 5
    colors[topo.vertex_index(1, 1)] = k
    colors[topo.vertex_index(0, 1)] = 7
    colors[topo.vertex_index(2, 1)] = 7
    colors[topo.vertex_index(1, 0)] = 7
    res = run_synchronous(topo, colors, SMPRule(), target_color=k)
    assert res.monotone is False


def test_monotone_none_without_target():
    topo = ToroidalMesh(3, 3)
    res = run_synchronous(topo, np.zeros(9, dtype=np.int32), SMPRule())
    assert res.monotone is None and res.target_color is None


def test_cycle_detection_reports_period():
    """Under Prefer-Black a 2-row black band on a 4-row torus blinks:
    rows with two black vertical neighbors go black, the old band's rows
    see two white -> the band translates/oscillates; whatever the exact
    orbit, the engine must detect a cycle rather than loop to the cap."""
    topo = ToroidalMesh(4, 4)
    grid = np.full((4, 4), WHITE, dtype=np.int32)
    grid[0, :] = BLACK
    grid[2, :] = BLACK
    res = run_synchronous(
        topo, grid.reshape(-1), ReverseSimpleMajority("prefer-black")
    )
    assert res.converged or (res.cycle_length is not None and res.cycle_length >= 2)
    assert res.rounds < default_round_cap(topo)


def test_cycle_detection_can_be_disabled():
    topo = ToroidalMesh(4, 4)
    grid = np.full((4, 4), WHITE, dtype=np.int32)
    grid[0, :] = BLACK
    grid[2, :] = BLACK
    res = run_synchronous(
        topo,
        grid.reshape(-1),
        ReverseSimpleMajority("prefer-black"),
        detect_cycles=False,
        max_rounds=50,
    )
    if not res.converged:
        assert res.cycle_length is None
        assert res.rounds == 50


def test_default_round_cap_scale(torus_kind):
    topo = TORUS_KINDS[torus_kind](5, 5)
    assert default_round_cap(topo) == 4 * 25 + 64


def test_deterministic(rng, torus_kind):
    topo = TORUS_KINDS[torus_kind](4, 5)
    colors = random_coloring(topo, 4, rng)
    r1 = run_synchronous(topo, colors, SMPRule())
    r2 = run_synchronous(topo, colors, SMPRule())
    assert np.array_equal(r1.final, r2.final)
    assert r1.rounds == r2.rounds


def test_summary_strings():
    from repro.core import theorem2_mesh_dynamo

    con = theorem2_mesh_dynamo(5, 5)
    res = run_synchronous(con.topo, con.colors, SMPRule(), target_color=con.k)
    s = res.summary()
    assert "monochromatic" in s and "fixed point" in s and "monotone=True" in s
