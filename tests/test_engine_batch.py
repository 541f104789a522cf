"""Batched multi-replica engine tests.

The contract of :func:`repro.engine.batch.run_batch` is row-for-row
bitwise agreement with :func:`repro.engine.runner.run_synchronous` — for
*every* rule, on every torus kind, including the irreversible color and
cycle detection.  Seeded property tests below pin that
contract for all five rule families; the fast per-rule ``step_batch``
kernels are additionally checked against the base-class row-loop oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import batch as batch_module
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
from repro.topology import GraphTopology, ToroidalMesh

from helpers import TORUS_KINDS, CyclicRule

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
    """Row-for-row comparison of a BatchRunResult against the scalar runner."""
    for i in range(batch.shape[0]):
        ref = run_synchronous(
            topo, batch[i], rule, target_color=target, **kwargs
        )
        assert np.array_equal(res.final[i], ref.final)
        assert bool(res.converged[i]) == ref.converged
        assert int(res.rounds[i]) == ref.rounds
        cyc = int(res.cycle_length[i])
        assert (cyc if cyc > 0 else None) == ref.cycle_length
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


def test_run_batch_irreversible_matches(rng, torus_kind):
    topo = TORUS_KINDS[torus_kind](4, 4)
    rule = ReverseSimpleMajority("prefer-black")
    batch = _random_batch(rng, topo, 1, 2, 24)
    res = run_batch(
        topo, batch, rule, max_rounds=80, target_color=2, irreversible_color=2
    )
    _assert_rows_match(
        res, topo, batch, rule, 2, max_rounds=80, irreversible_color=2
    )
    # irreversible runs are monotone for that color by construction
    assert res.monotone.all()


def test_run_batch_cycle_detection(rng):
    """Prefer-Black on a 2-2 checkerboard blinks with period 2; the batch
    engine must retire such rows with the detected cycle length."""
    topo = ToroidalMesh(4, 4)
    rule = ReverseSimpleMajority("prefer-black")
    grid = np.indices((4, 4)).sum(axis=0) % 2  # checkerboard
    blink = (grid + 1).astype(np.int32).reshape(-1)  # colors in {1, 2}
    batch = np.stack([blink, np.full(16, 2, dtype=np.int32)])
    res = run_batch(topo, batch, rule, max_rounds=50, target_color=2)
    assert not res.converged[0] and int(res.cycle_length[0]) == 2
    assert res.converged[1] and int(res.cycle_length[1]) == 1
    ref = run_synchronous(topo, blink, rule, max_rounds=50, target_color=2)
    assert ref.cycle_length == 2 and np.array_equal(res.final[0], ref.final)


# ----------------------------------------------------------------------
# cycle detection: exact verdicts, retirement at the first repeat
# ----------------------------------------------------------------------
def _colliding_digests(colors, mult):
    """Every state gets the same digest: each round triggers a check."""
    return np.zeros((colors.shape[0], 2), dtype=np.uint64)


def test_cycle_verdict_does_not_trust_the_digest(monkeypatch, rng, torus_kind):
    """With every digest colliding, each live row is checked against its
    whole state history every round; results must still be the scalar
    runner's, row for row — the digest triggers, the states decide."""
    monkeypatch.setattr(batch_module, "_digest_rows", _colliding_digests)
    topo = TORUS_KINDS[torus_kind](4, 5)
    for name in ("smp", "plurality", "cyclic"):
        factory, low, palette, target = RULE_CASES[name]
        rule = factory()
        batch = _random_batch(rng, topo, low, palette, 24)
        res = run_batch(topo, batch, rule, max_rounds=120, target_color=target)
        _assert_rows_match(res, topo, batch, rule, target, max_rounds=120)


def test_history_widening_keeps_parity(monkeypatch, rng, torus_kind):
    """A history with room for one round is widened at rounds 1, 2, 4,
    8, ... while rows retire around it; results must not notice."""
    monkeypatch.setattr(batch_module, "_HISTORY_ROUNDS", 1)
    topo = TORUS_KINDS[torus_kind](4, 5)
    for name in ("smp", "cyclic"):
        factory, low, palette, target = RULE_CASES[name]
        rule = factory()
        batch = _random_batch(rng, topo, low, palette, 32)
        res = run_batch(topo, batch, rule, max_rounds=120, target_color=target)
        _assert_rows_match(res, topo, batch, rule, target, max_rounds=120)


def test_state_history_widens_past_the_uint8_range(monkeypatch, rng):
    """Colors start below 256 and leave that range mid-run: the history
    must switch to an exact dtype.  Truncated to uint8, the all-256
    state a counter from 200 stores at round 56 would read back as the
    all-0 state it reaches at round 200 — a false period-144 cycle."""

    class Counter(Rule):
        """Every vertex advances one color per round, mod ``k``."""

        def __init__(self, k):
            self.k = k

        def step_batch(self, colors, topo, out=None):
            if out is None:
                out = np.empty_like(colors)
            np.remainder(colors + 1, self.k, out=out)
            return out

        def update_vertex(self, current, neighbor_colors):
            return (current + 1) % self.k

        def plan_token(self):
            return (self.k,)

    monkeypatch.setattr(batch_module, "_digest_rows", _colliding_digests)
    topo = ToroidalMesh(3, 3)
    batch = np.stack([np.full(9, 200), _random_batch(rng, topo, 0, 3, 1)[0]])
    res = run_batch(topo, batch, Counter(400), max_rounds=450, target_color=0)
    assert (res.cycle_length == 400).all() and (res.rounds == 400).all()
    assert np.array_equal(res.final, batch)
    _assert_rows_match(res, topo, batch, Counter(400), 0, max_rounds=450)


def test_cycle_detection_steps_each_row_to_its_first_repeat(rng, torus_kind):
    """No replay and no late retirement: the row-rounds stepped are
    exactly what each row's outcome implies — ``r + 1`` for a fixed
    point at round ``r``, ``rounds`` for a first repeat or the cap."""
    stepped = []

    class CountingCyclic(CyclicRule):
        def step_batch(self, colors, topo, out=None):
            stepped.append(colors.shape[0])
            return CyclicRule.step_batch(self, colors, topo, out=out)

    topo = TORUS_KINDS[torus_kind](4, 5)
    batch = _random_batch(rng, topo, 0, 3, 64)
    batch[0] = 0  # a fixed point from round 0
    res = run_batch(topo, batch, CountingCyclic(3), max_rounds=12, target_color=0)
    assert res.converged.any() and (res.cycle_length > 1).any()
    assert (res.cycle_length == 0).any()  # some rows run to the cap
    implied = np.where(res.converged, res.fixed_point_round + 1, res.rounds)
    assert sum(stepped) == int(implied.sum())


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
    ref = run_synchronous(topo, batch[2], SMPRule(), max_rounds=80, target_color=0)
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
