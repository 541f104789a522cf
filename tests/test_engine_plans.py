"""Engine oracle matrix and stepper-registry tests (:mod:`repro.engine.plans`).

Two contracts are pinned here:

* **the engine's speed-ups are invisible** — :func:`run_batch` serves
  compiled steppers from the registry and retires cycling rows by
  lockstep Brent detection; the oracle matrix compares every
  :class:`BatchRunResult` field of every row with per-row
  :func:`run_synchronous` stepping each row to the cap with neither,
  and the verdicts the drivers read with the scalar runner's
  first-repeat detection, across rule cases x oracle variants x
  kernels (compiled, and the rules' own ``step_batch``) x torus kinds
  (the irreversible variant, which ``run_batch`` does not have, holds
  per-row ``run_synchronous`` against the rules' own kernel), and a
  census run from a cold registry matches one from a warm registry;
* **cache correctness** — hits/misses/evictions behave, one plan
  serves every batch width of a ``(rule, topology)``, a mutated rule
  misses (plan tokens change with spec-relevant state), non-authoritative
  tokens are withheld (subclassed kernels), compiled steppers stay
  process-local (pool workers fill their own cache), and the cache holds
  raw steppers whatever telemetry level compiled them.
"""

from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.core.search import random_dynamo_search
from repro.engine import (
    AsyncSchedule,
    ExecutionSettings,
    clear_plan_cache,
    default_round_cap,
    plan_cache_stats,
    run_asynchronous,
    run_asynchronous_batch,
    run_batch,
    run_synchronous,
    validate_round_cap,
)
from repro.engine.plans import (
    _DEFAULT_CACHE_SIZE,
    DEFAULT_PLAN,
    rule_plan_token,
    stepper_cache_key,
    stepper_for,
    topology_token,
)
from repro.experiments import below_bound_census
from repro.io.witnessdb import WitnessDB
from repro.obs.report import load_stream, summarize
from repro.rules import (
    GeneralizedPluralityRule,
    LinearThresholdRule,
    OrderedIncrementRule,
    ReverseSimpleMajority,
    Rule,
    SMPRule,
)
from repro.topology import ToroidalMesh

from helpers import (
    RESULT_FIELDS,
    TORUS_KINDS,
    CyclicRule,
    assert_matches_oracle,
    assert_per_row_matches_own_kernel,
    assert_verdicts_match,
    per_row_oracle,
    rule_kernel_only,
)

#: rule cases of the oracle matrix (factory, low, palette, target)
RULE_CASES = {
    "smp": (lambda: SMPRule(), 0, 4, 0),
    # nine bit planes on the packed SMP path: colours 250..257
    "smp-wide": (lambda: SMPRule(), 250, 8, 256),
    "majority": (lambda: ReverseSimpleMajority("prefer-black"), 1, 2, 2),
    "plurality": (lambda: GeneralizedPluralityRule(5), 0, 5, 0),
    "ordered": (lambda: OrderedIncrementRule(4), 0, 4, 3),
    "threshold": (lambda: LinearThresholdRule("simple"), 0, 2, 1),
    # cycles of period 3 and longer (the others blink with period 2)
    "cyclic": (lambda: CyclicRule(3), 0, 3, 0),
}

#: oracle variants: the scalar runner's default first-repeat detection
#: ("plain", compared on the verdicts the drivers read), every row
#: stepped to the cap ("no-cycles", every field), and per-row
#: run_synchronous with an irreversible color (filled per case) against
#: the same calls on the rules' own kernel ("irreversible": run_batch
#: has no irreversible variant)
VARIANTS = {
    "plain": {"detect_cycles": True},
    "no-cycles": {},
    "irreversible": {},
}

#: the kernel a run steps with: the rule's own ``step_batch`` through the
#: test seam, or the compiled kernel
KERNELS = {"reference": rule_kernel_only, "stencil": nullcontext}


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test starts from an empty stepper registry and leaves one of
    the default size behind."""
    clear_plan_cache()
    yield
    clear_plan_cache(maxsize=_DEFAULT_CACHE_SIZE)


def _run_and_check(topo, batch, rule, variant, context, **kwargs):
    """Run ``batch`` and compare it with the variant's per-row oracle;
    the batch result, or None for the per-row irreversible variant."""
    if variant == "irreversible":
        assert_per_row_matches_own_kernel(
            topo, batch, rule, context,
            irreversible_color=kwargs["target_color"], **kwargs,
        )
        return None
    res = run_batch(topo, batch, rule, **kwargs)
    oracle = per_row_oracle(topo, batch, rule, **VARIANTS[variant], **kwargs)
    check = assert_verdicts_match if variant == "plain" else assert_matches_oracle
    check(res, oracle, context)
    return res


# ----------------------------------------------------------------------
# the oracle matrix: run_batch vs per-row run_synchronous
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("case", sorted(RULE_CASES))
def test_escalation_parity_matrix(rng, torus_kind, case, variant, kernel):
    topo = TORUS_KINDS[torus_kind](4, 5)
    factory, low, palette, target = RULE_CASES[case]
    rule = factory()
    batch = rng.integers(low, low + palette, size=(32, topo.num_vertices)).astype(
        np.int32
    )
    with KERNELS[kernel]():
        _run_and_check(
            topo, batch, rule, variant, (kernel, case, variant),
            max_rounds=100, target_color=target,
        )


def test_escalation_parity_across_round_caps(rng):
    """Sweep the cap through every phase of the Brent fast-forward
    (before the first snapshot, between a detection and its deadline,
    deep cycling) — the modular arithmetic of the cap state must hold at
    every value, for period-2 blinkers and for longer cycles alike, on
    every torus kind and engine-flag variant."""
    cycling = {"smp": 0, "cyclic": 0}
    for kind, torus in sorted(TORUS_KINDS.items()):
        topo = torus(4, 4)
        for case in ("smp", "cyclic"):
            factory, low, palette, target = RULE_CASES[case]
            rule = factory()
            batch = rng.integers(low, low + palette, size=(12, 16)).astype(
                np.int32
            )
            for variant in sorted(VARIANTS):
                for cap in list(range(0, 24)) + [33, 48, 80, 101]:
                    res = _run_and_check(
                        topo, batch, rule, variant, (kind, case, variant, cap),
                        max_rounds=cap, target_color=target,
                    )
                    if variant == "no-cycles" and cap == 101:
                        cycling[case] += int((~res.converged).sum())
    # the pin is meaningful: rows of both cases cycle to the cap
    assert all(cycling.values()), cycling


def test_escalation_retires_cycling_rows_early(rng):
    """The point of the exercise: a cycling-heavy search batch must not
    simulate every row to the cap.  A counting stepper measures the
    row-rounds run_batch steps; the oracle's per-row outcomes give what
    full simulation steps (a converged row one round past its last
    change, a cycling row every round to the cap)."""
    stepped = [0]

    class CountingSMP(SMPRule):
        def step_batch(self, colors, topo, out=None):
            stepped[0] += colors.shape[0]  # row-rounds simulated
            return SMPRule.step_batch(self, colors, topo, out=out)

    topo = ToroidalMesh(4, 4)
    batch = rng.integers(0, 5, size=(128, 16)).astype(np.int32)
    kw = dict(max_rounds=80, target_color=0)
    res = run_batch(topo, batch, CountingSMP(), **kw)
    oracle = per_row_oracle(topo, batch, SMPRule(), **kw)
    assert_matches_oracle(res, oracle, "counting")
    full = sum(r.rounds + int(r.converged) for r in oracle)
    assert not all(r.converged for r in oracle)
    # cycling rows retire once their period is known instead of running
    # to 80
    assert stepped[0] < full / 2, (stepped[0], full)


# ----------------------------------------------------------------------
# results do not depend on what the registry already holds
# ----------------------------------------------------------------------
def test_census_rows_and_witness_ids_cold_vs_warm_registry(tmp_path):
    """A census from an empty stepper registry and one served entirely
    from a warm registry give the same rows and the same witness ids."""
    kwargs = dict(kinds=["mesh"], sizes=[3, 4], random_trials=400)
    dbs, rows = {}, {}
    for name in ("cold", "warm"):
        db = WitnessDB(tmp_path / f"{name}.jsonl")
        misses = plan_cache_stats().misses
        rows[name] = below_bound_census(db=db, **kwargs)
        dbs[name] = db
    # the cold run compiled, the warm one was served every stepper
    assert misses > 0 and plan_cache_stats().misses == misses
    assert rows["cold"] == rows["warm"]
    ids_cold = sorted(r.id for r in dbs["cold"])
    assert ids_cold == sorted(r.id for r in dbs["warm"])
    assert ids_cold  # witnesses were actually recorded
    assert (
        sorted(c.id for c in dbs["cold"].cells)
        == sorted(c.id for c in dbs["warm"].cells)
    )


def test_run_synchronous_backend_and_plan_are_bitwise_invisible(rng):
    """run_synchronous on the compiled kernel, from a cold and then a
    warm registry, matches it on the rules' own kernel."""
    topo = ToroidalMesh(4, 5)
    for case in sorted(RULE_CASES):
        factory, low, palette, target = RULE_CASES[case]
        rule = factory()
        colors = rng.integers(low, low + palette, size=20).astype(np.int32)
        with rule_kernel_only():
            ref = run_synchronous(topo, colors, rule, target_color=target)
        for served in ("cold", "warm"):
            res = run_synchronous(topo, colors, rule, target_color=target)
            assert np.array_equal(res.final, ref.final), (case, served)
            assert res.rounds == ref.rounds
            assert res.converged == ref.converged
            assert res.cycle_length == ref.cycle_length
            assert res.monotone == ref.monotone


def test_run_synchronous_custom_scalar_step_keeps_its_kernel():
    """A rule overriding `step` keeps its own kernel — the compiled
    fast path only applies to the stock batched delegation."""

    class FreezeRule(SMPRule):
        def step(self, colors, topo, out=None):
            if out is None:
                return colors.copy()
            np.copyto(out, colors)
            return out

    topo = ToroidalMesh(3, 3)
    colors = np.arange(9, dtype=np.int32) % 3
    res = run_synchronous(topo, colors, FreezeRule(), max_rounds=10)
    assert res.converged and np.array_equal(res.final, colors)


# ----------------------------------------------------------------------
# stepper cache behaviour
# ----------------------------------------------------------------------
def test_plan_cache_hit_miss_and_eviction(rng):
    clear_plan_cache(maxsize=2)
    topo = ToroidalMesh(4, 4)
    batch = rng.integers(0, 4, size=(8, 16)).astype(np.int32)
    run_batch(topo, batch, SMPRule(), max_rounds=5)
    s = plan_cache_stats()
    assert (s.hits, s.misses, s.size) == (0, 1, 1)
    run_batch(topo, batch, SMPRule(), max_rounds=5)  # same key, new instance
    s = plan_cache_stats()
    assert (s.hits, s.misses) == (1, 1)
    # batch width is not part of the key: narrower and wider are hits
    run_batch(topo, batch[:4], SMPRule(), max_rounds=5)
    run_batch(topo, np.tile(batch, (3, 1)), SMPRule(), max_rounds=5)
    s = plan_cache_stats()
    assert (s.hits, s.misses, s.size) == (3, 1, 1)
    # two more distinct keys: the second evicts the least-recently-used
    run_batch(topo, batch, OrderedIncrementRule(4), max_rounds=5)
    run_batch(ToroidalMesh(4, 5), np.zeros((8, 20), np.int32), SMPRule(),
              max_rounds=5)
    s = plan_cache_stats()
    assert s.evictions == 1 and s.size == 2 and s.maxsize == 2
    clear_plan_cache()
    assert plan_cache_stats().size == 0
    # the bound survives a plain clear; restore the default for later tests
    assert plan_cache_stats().maxsize == 2
    clear_plan_cache(maxsize=_DEFAULT_CACHE_SIZE)


def test_mutated_rule_state_invalidates_cached_stepper(rng):
    """The plan-token contract: mutating spec-relevant state must miss
    the cache and recompile — never serve the stale kernel."""
    topo = ToroidalMesh(4, 4)
    batch = rng.integers(0, 4, size=(16, 16)).astype(np.int32)
    rule = OrderedIncrementRule(4, threshold="simple")
    first = run_batch(topo, batch, rule, max_rounds=30)
    assert plan_cache_stats().misses == 1
    rule.threshold = "strong"  # spec-relevant mutation
    mutated = run_batch(topo, batch, rule, max_rounds=30)
    assert plan_cache_stats().misses == 2  # recompiled, not served
    strong = OrderedIncrementRule(4, threshold="strong")
    assert_matches_oracle(
        mutated, per_row_oracle(topo, batch, strong, max_rounds=30), "mutated rule"
    )
    rule.threshold = "simple"  # mutating back re-serves the first entry
    again = run_batch(topo, batch, rule, max_rounds=30)
    for field in RESULT_FIELDS:
        assert np.array_equal(getattr(again, field), getattr(first, field))
    assert plan_cache_stats().hits >= 1


def test_tie_policy_and_threshold_vector_tokens():
    assert rule_plan_token(ReverseSimpleMajority("prefer-black")) != (
        rule_plan_token(ReverseSimpleMajority("prefer-current"))
    )
    a = LinearThresholdRule([1, 2, 1, 2])
    b = LinearThresholdRule([1, 2, 1, 2])
    c = LinearThresholdRule([2, 2, 2, 2])
    assert rule_plan_token(a) == rule_plan_token(b) != rule_plan_token(c)
    # the plurality threshold callable joins the token by identity
    fn = lambda d: d // 2 + 1  # noqa: E731
    assert rule_plan_token(GeneralizedPluralityRule(4, fn)) == rule_plan_token(
        GeneralizedPluralityRule(4, fn)
    )
    assert rule_plan_token(
        GeneralizedPluralityRule(4, fn)
    ) != rule_plan_token(GeneralizedPluralityRule(4, lambda d: d // 2 + 1))


def test_subclassed_kernel_withholds_inherited_token(rng):
    """A subclass overriding step_batch without republishing plan_token
    must not share cache entries keyed by the parent's token — and must
    run its own kernel under a caching plan."""

    class NeverRecolor(SMPRule):
        def step_batch(self, colors, topo, out=None):
            if out is None:
                return colors.copy()
            np.copyto(out, colors)
            return out

    assert rule_plan_token(NeverRecolor()) is None
    topo = ToroidalMesh(4, 4)
    batch = rng.integers(0, 4, size=(8, 16)).astype(np.int32)
    run_batch(topo, batch, SMPRule(), max_rounds=5)  # warm the SMP entry
    res = run_batch(topo, batch, NeverRecolor(), max_rounds=5)
    assert res.converged.all()
    assert np.array_equal(res.final, batch)  # its own kernel, not SMP's


def test_unhashable_plan_token_is_withheld():
    class Unhashable(list):
        __hash__ = None

    class WeirdRule(SMPRule):
        def step_batch(self, colors, topo, out=None):
            return SMPRule.step_batch(self, colors, topo, out=out)

        def kernel_spec(self, topo):
            return SMPRule.kernel_spec(self, topo)

        def plan_token(self):
            return (Unhashable(),)

    assert rule_plan_token(WeirdRule()) is None


def test_custom_rule_without_token_is_never_cached(rng):
    class Inert(Rule):
        def step(self, colors, topo, out=None):
            if out is None:
                return colors.copy()
            np.copyto(out, colors)
            return out

        def update_vertex(self, current, neighbor_colors):
            return current

    topo = ToroidalMesh(3, 3)
    assert rule_plan_token(Inert()) is None
    batch = rng.integers(0, 3, size=(4, 9)).astype(np.int32)
    run_batch(topo, batch, Inert(), max_rounds=5)
    assert plan_cache_stats().size == 0


def test_topology_token_structural_for_tori_and_graphs_identity_otherwise():
    import networkx as nx

    from repro.topology import GraphTopology
    from repro.topology.base import Topology

    assert topology_token(ToroidalMesh(4, 5)) == topology_token(
        ToroidalMesh(4, 5)
    )
    assert topology_token(ToroidalMesh(4, 5)) != topology_token(
        ToroidalMesh(5, 4)
    )
    # graphs are content-addressed via structure_token(): equal structures
    # share cached steppers across instances, distinct structures never do
    g1 = GraphTopology(nx.path_graph(5))
    g2 = GraphTopology(nx.path_graph(5))
    assert topology_token(g1) == topology_token(g2)
    assert topology_token(g1) != topology_token(GraphTopology(nx.path_graph(6)))

    # a topology with no structural token falls back to identity serials
    class Opaque(Topology):
        def __init__(self):
            self._nb = np.array([[1], [0]], dtype=np.int64)

        @property
        def num_vertices(self):
            return 2

        @property
        def neighbors(self):
            return self._nb

    o1, o2 = Opaque(), Opaque()
    assert topology_token(o1) == topology_token(o1)
    assert topology_token(o1) != topology_token(o2)

    class MeshSubclass(ToroidalMesh):
        pass

    # subclasses never share the registry-torus structural key
    assert topology_token(MeshSubclass(4, 5)) != topology_token(
        ToroidalMesh(4, 5)
    )


def test_stepper_cache_key_components():
    topo = ToroidalMesh(4, 4)
    key = stepper_cache_key(SMPRule(), topo)
    assert key == (rule_plan_token(SMPRule()), topology_token(topo))
    # uncacheable rule -> no key

    class Custom(SMPRule):
        def step_batch(self, colors, topo, out=None):
            return SMPRule.step_batch(self, colors, topo, out=out)

    assert stepper_cache_key(Custom(), topo) is None


def test_run_synchronous_is_served_the_batched_plan(rng):
    """run_synchronous's one-row calls share the plan run_batch compiled
    for the same (rule, torus), and their results do not change."""
    for case in sorted(RULE_CASES):
        factory, low, palette, target = RULE_CASES[case]
        for kind in sorted(TORUS_KINDS):
            clear_plan_cache()
            topo = TORUS_KINDS[kind](4, 5)
            rule = factory()
            batch = rng.integers(low, low + palette, size=(32, 20)).astype(
                np.int32
            )
            run_batch(topo, batch, rule, max_rounds=40, target_color=target)
            kw = dict(target_color=target, max_rounds=40)
            got = [run_synchronous(topo, row, rule, **kw) for row in batch[:4]]
            s = plan_cache_stats()
            assert (s.misses, s.hits, s.size) == (1, 4, 1), (case, kind)
            with rule_kernel_only():
                want = [run_synchronous(topo, row, rule, **kw) for row in batch[:4]]
            for b, (row, ref) in enumerate(zip(got, want)):
                for field in RESULT_FIELDS + ("cycle_length", "last_change"):
                    assert np.array_equal(getattr(row, field), getattr(ref, field)), (
                        case, kind, b, field,
                    )


# ----------------------------------------------------------------------
# telemetry hooks: the cache holds raw steppers, shims wrap each serve
# ----------------------------------------------------------------------
def _debug_steps(path, fn):
    """Run ``fn`` under a debug telemetry session; its step counters."""
    with obs.telemetry_session(path, level="debug", command="unit"):
        fn()
    counters = summarize(load_stream(path))["counters"]
    return counters.get("backend.steps", 0), "backend.step-us" in counters


def test_debug_session_leaves_raw_steppers_in_cache(tmp_path):
    """A stepper compiled under debug telemetry is cached raw: telemetry-off
    runs after the session are served the compiled kernel, no shim.
    ``DEFAULT_PLAN`` is the live registry, also after a clear."""
    topo = ToroidalMesh(4, 4)
    _debug_steps(tmp_path / "t.tel", lambda: stepper_for(SMPRule(), topo, 8))
    stepper = DEFAULT_PLAN.stepper_for(SMPRule(), topo, 8)
    assert (plan_cache_stats().hits, plan_cache_stats().misses) == (1, 1)
    assert type(stepper).__module__ == "repro.engine.stencil"


def test_debug_session_times_steppers_cached_before_it(tmp_path, rng):
    """A debug session served a stepper compiled with telemetry off still
    records every step, exactly as with a fresh compile."""
    topo = ToroidalMesh(4, 4)
    batch = rng.integers(0, 4, size=(8, 16)).astype(np.int32)

    def run():
        run_batch(topo, batch, SMPRule(), max_rounds=30)

    fresh = _debug_steps(tmp_path / "fresh.tel", run)
    clear_plan_cache()
    run()  # compile and cache with telemetry off
    served = _debug_steps(tmp_path / "served.tel", run)
    assert plan_cache_stats().hits == 1
    assert fresh[0] > 0 and fresh[1]
    assert served == fresh


# ----------------------------------------------------------------------
# per-worker isolation
# ----------------------------------------------------------------------
def test_sharded_search_keeps_parent_cache_untouched():
    """Pool workers fill their own process-local registries; the parent's
    counters must not move while shards run elsewhere."""
    topo = ToroidalMesh(4, 4)
    before = plan_cache_stats()
    settings = ExecutionSettings(batch_size=64, shard_size=128)
    out = random_dynamo_search(
        topo, 3, 5, 512, 0xBEEF, monotone_only=True,
        settings=replace(settings, processes=2),
    )
    assert out.examined == 512
    after = plan_cache_stats()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    # and the sharded outcome matches the inline one bitwise
    inline = random_dynamo_search(
        topo, 3, 5, 512, 0xBEEF, monotone_only=True,
        settings=replace(settings, processes=0),
    )
    assert len(out.witnesses) == len(inline.witnesses)
    for (ca, ma), (cb, mb) in zip(out.witnesses, inline.witnesses):
        assert ma == mb and np.array_equal(ca, cb)


# ----------------------------------------------------------------------
# the shared round-cap validator (batch / scalar / async agree)
# ----------------------------------------------------------------------
def test_validate_round_cap_shared_semantics():
    topo = ToroidalMesh(3, 3)
    assert validate_round_cap(None, topo) == default_round_cap(topo)
    assert validate_round_cap(0, topo) == 0
    for bad in (-1, 2.5, "x"):
        with pytest.raises(ValueError, match="max_rounds"):
            validate_round_cap(bad, topo)


def test_all_drivers_reject_negative_caps_and_accept_zero(rng):
    topo = ToroidalMesh(3, 3)
    colors = rng.integers(0, 3, size=9).astype(np.int32)
    batch = colors[None, :]
    sched = AsyncSchedule.derive(0, 1)
    for call, flag in (
        (lambda mr: run_batch(topo, batch, SMPRule(), max_rounds=mr), "max_rounds"),
        (
            lambda mr: run_synchronous(topo, colors, SMPRule(), max_rounds=mr),
            "max_rounds",
        ),
        (
            lambda mr: run_asynchronous(topo, colors, SMPRule(), max_sweeps=mr),
            "max_sweeps",
        ),
        (
            lambda mr: run_asynchronous_batch(
                topo, batch, SMPRule(), sched, max_sweeps=mr
            ),
            "max_sweeps",
        ),
    ):
        for bad in (-1, 2.5):
            with pytest.raises(ValueError, match=flag):
                call(bad)
        res = call(0)
        final = res.final if res.final.ndim == 1 else res.final[0]
        assert np.array_equal(final, colors)
        assert not np.any(res.converged) and np.all(res.rounds == 0)
