"""Batched multi-replica engine tests.

The contract of :func:`repro.engine.batch.run_batch` is row-for-row
bitwise agreement with :func:`repro.engine.runner.run_synchronous`
stepping each row to the cap (``detect_cycles=False``) — for *every*
rule, on every torus kind, including Brent retirement of cycling rows — and agreement with the scalar runner's
first-repeat detection on the verdicts the drivers read.  Seeded
property tests below pin that contract for all five rule families; the
fast per-rule ``step_batch`` kernels are additionally checked against
the base-class row-loop oracle, and the batched SMP searches run on is
checked against the single-configuration step.
"""

import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import run_batch, run_synchronous
from repro.engine.batch import as_color_batch
from repro.rules import (
    GeneralizedPluralityRule,
    LinearThresholdRule,
    OrderedIncrementRule,
    ReverseSimpleMajority,
    ReverseStrongMajority,
    Rule,
    SMPRule,
    make_rule,
)
from repro.rules.smp import smp_step_batch
from repro.topology import GraphTopology, ToroidalMesh

from helpers import TORUS_KINDS, CyclicRule, assert_verdicts_match, per_row_oracle

#: (name, rule factory, palette low, palette size, target color) — one per
#: rule family; palettes respect each rule's domain (bi-colored majority
#: on {WHITE=1, BLACK=2}, linear threshold on {0, 1}).
RULE_CASES = {
    "smp": (lambda: SMPRule(), 0, 4, 0),
    "majority": (lambda: ReverseSimpleMajority("prefer-black"), 1, 2, 2),
    "majority-pc": (lambda: ReverseSimpleMajority("prefer-current"), 1, 2, 2),
    "strong-majority": (lambda: ReverseStrongMajority(), 0, 4, 0),
    "plurality": (lambda: GeneralizedPluralityRule(4), 0, 4, 0),
    "ordered": (lambda: OrderedIncrementRule(4), 0, 4, 3),
    "threshold": (lambda: LinearThresholdRule("simple"), 0, 2, 1),
    # not a registry rule: its cycles have period 3 and longer
    "cyclic": (lambda: CyclicRule(3), 0, 3, 0),
}


@pytest.fixture(params=sorted(RULE_CASES))
def rule_case(request):
    return request.param


def _random_batch(rng, topo, low, palette, b):
    return rng.integers(low, low + palette, size=(b, topo.num_vertices)).astype(
        np.int32
    )


def _assert_rows_match(res, topo, batch, rule, target, **kwargs):
    """Row-for-row comparison of a BatchRunResult against the scalar
    runner stepping each row to the cap."""
    for i in range(batch.shape[0]):
        ref = run_synchronous(
            topo, batch[i], rule, target_color=target, detect_cycles=False,
            **kwargs
        )
        assert np.array_equal(res.final[i], ref.final)
        assert bool(res.converged[i]) == ref.converged
        assert int(res.rounds[i]) == ref.rounds
        fpr = int(res.fixed_point_round[i])
        assert (fpr if fpr >= 0 else None) == ref.fixed_point_round
        assert bool(res.monotone[i]) == ref.monotone


# ----------------------------------------------------------------------
# step_batch kernels vs the base-class row-loop oracle
# ----------------------------------------------------------------------
def test_step_batch_kernels_match_row_loop(rng, torus_kind, rule_case):
    topo = TORUS_KINDS[torus_kind](4, 5)
    factory, low, palette, _ = RULE_CASES[rule_case]
    rule = factory()
    batch = _random_batch(rng, topo, low, palette, 16)
    fast = rule.step_batch(batch, topo)
    oracle = Rule.step_batch(rule, batch, topo)
    assert np.array_equal(fast, oracle)


def test_step_batch_on_irregular_padded_graph(rng):
    import networkx as nx

    topo = GraphTopology(nx.path_graph(7))  # padded rows, degrees 1 and 2
    for rule in (
        GeneralizedPluralityRule(4),
        OrderedIncrementRule(3),
        LinearThresholdRule("strong"),
    ):
        palette = getattr(rule, "num_colors", 2)
        batch = _random_batch(rng, topo, 0, palette, 11)
        assert np.array_equal(
            rule.step_batch(batch, topo), Rule.step_batch(rule, batch, topo)
        )


def test_step_batch_out_buffer(rng):
    topo = ToroidalMesh(4, 4)
    rule = SMPRule()
    batch = _random_batch(rng, topo, 0, 4, 8)
    out = np.empty_like(batch)
    res = rule.step_batch(batch, topo, out=out)
    assert res is out
    assert np.array_equal(out, rule.step_batch(batch, topo))


# ----------------------------------------------------------------------
# run_batch vs run_synchronous: the bitwise-equivalence contract
# ----------------------------------------------------------------------
def test_run_batch_matches_run_synchronous(rng, torus_kind, rule_case):
    topo = TORUS_KINDS[torus_kind](4, 5)
    factory, low, palette, target = RULE_CASES[rule_case]
    rule = factory()
    batch = _random_batch(rng, topo, low, palette, 32)
    res = run_batch(topo, batch, rule, max_rounds=120, target_color=target)
    _assert_rows_match(res, topo, batch, rule, target, max_rounds=120)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), b=st.integers(1, 9))
def test_run_batch_matches_run_synchronous_property(seed, b):
    """Seeded sweep over all five registry rules on a small mesh."""
    rng = np.random.default_rng(seed)
    topo = ToroidalMesh(3, 4)
    for name in ("smp", "majority", "strong-majority", "plurality", "ordered",
                 "threshold"):
        rule = make_rule(name, num_colors=3)
        low, palette, target = {
            "majority": (1, 2, 2),
            "threshold": (0, 2, 1),
            "ordered": (0, 3, 2),
        }.get(name, (0, 3, 0))
        batch = _random_batch(rng, topo, low, palette, b)
        res = run_batch(topo, batch, rule, max_rounds=60, target_color=target)
        _assert_rows_match(res, topo, batch, rule, target, max_rounds=60)


def test_run_batch_cycle_detection(rng):
    """Prefer-Black on a 2-2 checkerboard blinks with period 2; the batch
    engine retires such a row by its Brent deadline, in the state the
    scalar runner reaches at the cap."""
    topo = ToroidalMesh(4, 4)
    rule = ReverseSimpleMajority("prefer-black")
    grid = np.indices((4, 4)).sum(axis=0) % 2  # checkerboard
    blink = (grid + 1).astype(np.int32).reshape(-1)  # colors in {1, 2}
    batch = np.stack([blink, np.full(16, 2, dtype=np.int32)])
    for cap in (50, 51):
        res = run_batch(topo, batch, rule, max_rounds=cap, target_color=2)
        assert not res.converged[0] and int(res.rounds[0]) == cap
        assert res.converged[1] and int(res.rounds[1]) == 0
        ref = run_synchronous(
            topo, blink, rule, max_rounds=cap, target_color=2,
            detect_cycles=False,
        )
        assert ref.rounds == cap and np.array_equal(res.final[0], ref.final)
    # the scalar runner's first-repeat detection stops the blinker early
    first = run_synchronous(topo, blink, rule, max_rounds=50, target_color=2)
    assert first.cycle_length == 2 and first.rounds == 2


@pytest.mark.parametrize("seed", range(4))
def test_leaf_block_verdicts_match_first_repeat(seed):
    """The complement DFS keeps the rows of a 256-row SMP block that
    become k-monochromatic monotonically.  On random blocks with cycling
    rows that verdict (and whatever else the drivers read) equals the
    scalar runner's with first-repeat detection."""
    rng = np.random.default_rng(seed)
    topo = TORUS_KINDS[("mesh", "cordalis", "serpentinus", "mesh")[seed]](5, 5)
    # colour k = 0 on about half the cells, so some rows pass
    batch = rng.integers(-3, 4, size=(256, topo.num_vertices)).clip(0)
    batch = batch.astype(np.int32)
    res = run_batch(topo, batch, SMPRule(), max_rounds=80, target_color=0)
    oracle = per_row_oracle(
        topo, batch, SMPRule(), max_rounds=80, target_color=0,
        detect_cycles=True,
    )
    verdict = res.k_monochromatic & res.monotone
    want = [r.is_dynamo_run(0) and bool(r.monotone) for r in oracle]
    assert verdict.tolist() == want
    assert_verdicts_match(res, oracle, seed)
    # the pin is meaningful: rows pass, fail, and cycle
    assert verdict.any() and not verdict.all()
    assert any(r.cycle_length and r.cycle_length > 1 for r in oracle)


def test_run_batch_retires_converged_rows_early(rng):
    """A batch mixing instant fixed points with slow rows reports per-row
    rounds, not the batch maximum."""
    from repro.core import theorem2_mesh_dynamo

    con = theorem2_mesh_dynamo(6, 6)
    fixed = np.full(con.topo.num_vertices, con.k, dtype=np.int32)
    batch = np.stack([fixed, con.colors])
    res = run_batch(con.topo, batch, SMPRule(), target_color=con.k)
    assert res.converged.all()
    assert int(res.rounds[0]) == 0
    assert int(res.rounds[1]) > 0
    assert res.k_monochromatic.all()


def test_run_batch_input_not_mutated(rng):
    topo = ToroidalMesh(3, 3)
    batch = _random_batch(rng, topo, 0, 3, 6)
    before = batch.copy()
    run_batch(topo, batch, SMPRule(), max_rounds=20, target_color=0)
    assert np.array_equal(batch, before)


def test_run_batch_row_view(rng):
    topo = ToroidalMesh(4, 4)
    batch = _random_batch(rng, topo, 0, 3, 5)
    res = run_batch(topo, batch, SMPRule(), max_rounds=80, target_color=0)
    one = res.row(2)
    ref = run_synchronous(
        topo, batch[2], SMPRule(), max_rounds=80, target_color=0,
        detect_cycles=False,
    )
    assert np.array_equal(one.final, ref.final)
    assert one.rounds == ref.rounds
    assert one.converged == ref.converged
    assert one.cycle_length == ref.cycle_length
    assert one.monotone == ref.monotone


def test_run_batch_fallback_rule_without_kernel(rng):
    """A rule that never overrides step_batch still runs batched."""

    class Inert(Rule):
        def step(self, colors, topo, out=None):
            if out is None:
                return colors.copy()
            np.copyto(out, colors)
            return out

        def update_vertex(self, current, neighbor_colors):
            return current

    topo = ToroidalMesh(3, 3)
    batch = _random_batch(rng, topo, 0, 3, 4)
    res = run_batch(topo, batch, Inert(), max_rounds=10, target_color=0)
    assert res.converged.all()
    assert (res.rounds == 0).all()
    assert np.array_equal(res.final, batch)


def test_as_color_batch_validation():
    with pytest.raises(ValueError):
        as_color_batch(np.zeros((3,), dtype=np.int32), 3)  # not 2-D
    with pytest.raises(ValueError):
        as_color_batch(np.zeros((2, 4), dtype=np.int32), 3)  # wrong width
    with pytest.raises(ValueError):
        as_color_batch(np.full((2, 3), -1), 3)  # negative colors


def test_k_monochromatic_requires_target(rng):
    topo = ToroidalMesh(3, 3)
    batch = _random_batch(rng, topo, 0, 3, 2)
    res = run_batch(topo, batch, SMPRule(), max_rounds=10)
    assert res.monotone is None
    with pytest.raises(ValueError):
        _ = res.k_monochromatic


# ----------------------------------------------------------------------
# the batched SMP the core searches run on
# ----------------------------------------------------------------------
def test_core_import_stays_quiet():
    """Importing repro.core warns about nothing and carries no retired
    batch names."""
    sys.modules.pop("repro.core", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        import repro.core
    assert not hasattr(repro.core, "run_batch_smp")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), batch=st.integers(1, 8))
def test_batch_step_equals_single_step(seed, batch):
    rng = np.random.default_rng(seed)
    topo = ToroidalMesh(4, 5)
    configs = rng.integers(0, 4, size=(batch, topo.num_vertices)).astype(np.int32)
    stepped = smp_step_batch(configs, topo.neighbors)
    rule = SMPRule()
    for b in range(batch):
        assert np.array_equal(stepped[b], rule.step(configs[b], topo))


def test_batch_includes_constructions(torus_kind):
    from repro.core import build_minimum_dynamo

    con = build_minimum_dynamo(torus_kind, 5, 5)
    batch = np.stack([con.colors, con.colors])
    out = run_batch(con.topo, batch, SMPRule(), max_rounds=200, target_color=con.k)
    assert out.k_monochromatic.all()
    assert out.monotone.all()


def test_batch_round_cap():
    from repro.core import theorem4_cordalis_dynamo

    con = theorem4_cordalis_dynamo(8, 8)  # 24 rounds needed
    batch = con.colors[None, :]
    out = run_batch(con.topo, batch, SMPRule(), max_rounds=5, target_color=con.k)
    assert not out.converged[0]
    assert not out.k_monochromatic[0]
