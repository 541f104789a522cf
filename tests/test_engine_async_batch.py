"""Batched asynchronous schedules (:class:`AsyncSchedule` + the batch driver).

The load-bearing contract: row ``i`` of :func:`run_asynchronous_batch` is
**bitwise identical** to a scalar :func:`run_asynchronous` run driven by
the same per-row generator — for the vectorized smp/plurality legs and
for the row-loop fallback.  The batch driver compiles its own per-vertex
update from the rule's spec and never asks the stepper registry for a
plan, so the scalar loop is the only oracle it needs.
That equivalence is what lets the ``ext`` robustness experiments batch
hundreds of schedules without changing a single recorded number.
"""

import numpy as np
import pytest

from repro.engine.schedulers import (
    AsyncSchedule,
    _compile_vertex_update,
    run_asynchronous,
    run_asynchronous_batch,
)
from repro.rules import GeneralizedPluralityRule, OrderedIncrementRule, SMPRule
from repro.topology import GraphTopology, ToroidalMesh


def _ba(n=24, seed=3):
    import networkx as nx

    return GraphTopology(nx.barabasi_albert_graph(n, 2, seed=seed))


def _scalar_rows(topo, batch, rule, schedule, *, max_sweeps=None, target=None):
    """Replay every row through the scalar loop (the defining semantics)."""
    out = []
    for i in range(batch.shape[0]):
        out.append(
            run_asynchronous(
                topo,
                batch[i],
                rule,
                order=schedule.order,
                rng=schedule.row_rng(i) if schedule.order == "random" else None,
                max_sweeps=max_sweeps,
                target_color=target,
            )
        )
    return out


def _assert_batch_matches_scalar(res, scalars):
    for i, ref in enumerate(scalars):
        assert np.array_equal(res.final[i], ref.final), i
        assert int(res.rounds[i]) == ref.rounds, i
        assert bool(res.converged[i]) == ref.converged, i
        assert res.row(i).cycle_length == ref.cycle_length, i
        assert int(res.fixed_point_round[i]) == (
            -1 if ref.fixed_point_round is None else ref.fixed_point_round
        ), i
        if res.monotone is not None:
            assert bool(res.monotone[i]) == bool(ref.monotone), i


# ----------------------------------------------------------------------
# AsyncSchedule declaration
# ----------------------------------------------------------------------
def test_schedule_validation():
    with pytest.raises(ValueError, match="unknown schedule order"):
        AsyncSchedule(order="reverse")
    with pytest.raises(ValueError, match="need per-row seeds"):
        AsyncSchedule(order="random")
    with pytest.raises(ValueError, match="take no seeds"):
        AsyncSchedule(order="fixed", seeds=((1, 2),))
    with pytest.raises(ValueError, match="count must be >= 1"):
        AsyncSchedule.derive(7, 0)


def test_schedule_derive_and_generators():
    sched = AsyncSchedule.derive(99, 3, start=10)
    assert sched.seeds == ((99, 10), (99, 11), (99, 12))
    assert sched.batch_size == 3
    gens = sched.generators()
    # row_rng(i) reproduces generators()[i]'s stream independently
    for i, g in enumerate(gens):
        assert np.array_equal(g.permutation(8), sched.row_rng(i).permutation(8))
    fixed = AsyncSchedule(order="fixed")
    assert fixed.batch_size is None
    with pytest.raises(ValueError, match="no generators"):
        fixed.generators()
    with pytest.raises(ValueError, match="no generators"):
        fixed.row_rng(0)


# ----------------------------------------------------------------------
# bitwise equivalence with the scalar loop
# ----------------------------------------------------------------------
def test_smp_leg_matches_scalar_on_torus(rng, torus_kind):
    from helpers import TORUS_KINDS

    topo = TORUS_KINDS[torus_kind](4, 5)
    rule = SMPRule()
    batch = rng.integers(0, 4, size=(9, topo.num_vertices)).astype(np.int32)
    sched = AsyncSchedule.derive(0xFEED, 9)
    res = run_asynchronous_batch(topo, batch, rule, sched, target_color=0)
    _assert_batch_matches_scalar(
        res, _scalar_rows(topo, batch, rule, sched, target=0)
    )


def test_plurality_leg_matches_scalar_on_irregular_graph(rng):
    topo = _ba()
    rule = GeneralizedPluralityRule(4)
    batch = rng.integers(0, 4, size=(7, topo.num_vertices)).astype(np.int32)
    sched = AsyncSchedule.derive(0xBEE, 7)
    res = run_asynchronous_batch(topo, batch, rule, sched, target_color=0)
    _assert_batch_matches_scalar(
        res, _scalar_rows(topo, batch, rule, sched, target=0)
    )


def test_row_loop_fallback_matches_scalar(rng):
    """A rule whose spec kind has no vectorized leg replays update_vertex."""
    topo = _ba(n=16, seed=5)
    rule = OrderedIncrementRule(4)
    update, validate = _compile_vertex_update(rule, topo)
    assert validate is None  # the row-loop fallback needs no palette guard
    batch = rng.integers(0, 4, size=(5, topo.num_vertices)).astype(np.int32)
    sched = AsyncSchedule.derive(0xC0DE, 5)
    res = run_asynchronous_batch(topo, batch, rule, sched, target_color=3)
    _assert_batch_matches_scalar(
        res, _scalar_rows(topo, batch, rule, sched, target=3)
    )


def test_overridden_oracle_gets_the_fallback(rng):
    """Overriding update_vertex redefines the async dynamics; the batch
    driver must follow the override, not the inherited kernel spec."""

    class ContrarySMP(SMPRule):
        def update_vertex(self, current, neighbor_colors):
            return current  # never recolor

    topo = ToroidalMesh(4, 4)
    rule = ContrarySMP()
    update, validate = _compile_vertex_update(rule, topo)
    assert validate is None
    batch = rng.integers(0, 4, size=(3, 16)).astype(np.int32)
    res = run_asynchronous_batch(topo, batch, rule, AsyncSchedule.derive(1, 3))
    assert np.array_equal(res.final, batch)
    assert res.converged.all() and (res.rounds == 0).all()


def test_fixed_order_matches_scalar(rng):
    topo = ToroidalMesh(4, 4)
    rule = SMPRule()
    batch = rng.integers(0, 4, size=(6, 16)).astype(np.int32)
    sched = AsyncSchedule(order="fixed")
    res = run_asynchronous_batch(topo, batch, rule, sched, target_color=0)
    _assert_batch_matches_scalar(
        res, _scalar_rows(topo, batch, rule, sched, target=0)
    )


def test_vectorized_legs_validate_the_initial_palette(rng):
    topo = _ba()
    bad = np.full((2, topo.num_vertices), 9, dtype=np.int32)
    with pytest.raises(ValueError):
        run_asynchronous_batch(
            topo, bad, GeneralizedPluralityRule(4), AsyncSchedule.derive(1, 2)
        )


def test_max_sweeps_cuts_off_unconverged_rows(rng):
    topo = _ba()
    rule = GeneralizedPluralityRule(4)
    batch = rng.integers(0, 4, size=(4, topo.num_vertices)).astype(np.int32)
    sched = AsyncSchedule.derive(2, 4)
    res = run_asynchronous_batch(topo, batch, rule, sched, max_sweeps=1)
    cut = ~res.converged
    assert np.array_equal(res.rounds[cut], np.ones(cut.sum(), dtype=np.int32))
    assert (res.fixed_point_round[cut] == -1).all()
    with pytest.raises(ValueError, match="max_sweeps must be >= 0"):
        run_asynchronous_batch(topo, batch, rule, sched, max_sweeps=-1)
    zero = run_asynchronous_batch(topo, batch, rule, sched, max_sweeps=0)
    assert np.array_equal(zero.final, batch) and not zero.converged.any()


def test_batch_size_mismatch_raises(rng):
    topo = ToroidalMesh(3, 3)
    batch = rng.integers(0, 4, size=(4, 9)).astype(np.int32)
    with pytest.raises(ValueError, match="pins 3 rows but the batch has 4"):
        run_asynchronous_batch(topo, batch, SMPRule(), AsyncSchedule.derive(0, 3))

