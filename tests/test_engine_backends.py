"""Compiled-kernel tests: :func:`repro.engine.stencil.compile_stepper`
against the rules' own ``step_batch``.

The contract of the compiled kernel is **bitwise identity**: it must
produce exactly the arrays the rule's own kernel produces, for every
rule, topology, and engine flag — that is what keeps it out of seeds and
witness-database cache keys.  The parity matrix below pins it, running
the reference side through :func:`helpers.rule_kernel_only`; the
seed-stability tests pin that searches and censuses (including their
recorded witness ids) come out the same on either kernel.
"""

import networkx as nx
import numpy as np
import pytest

from repro.core.search import random_dynamo_search
from repro.engine import ExecutionSettings, run_batch
from repro.engine.plans import raw_stepper_for
from repro.engine.stencil import (
    _PluralityPlan,
    compile_stepper,
    fallback_stepper,
    packed_smp,
)
from repro.experiments import below_bound_census
from repro.io.witnessdb import WitnessDB
from repro.rules import (
    GeneralizedPluralityRule,
    LinearThresholdRule,
    OrderedIncrementRule,
    ReverseSimpleMajority,
    ReverseStrongMajority,
    Rule,
    SMPRule,
)
from repro.rules.plurality import ceil_half, strong_threshold
from repro.topology import GraphTopology, ToroidalMesh

from helpers import (
    TORUS_KINDS,
    assert_matches_own_kernel,
    assert_per_row_matches_own_kernel,
    rule_kernel_only,
)

#: the per-rule palettes of the parity matrix (name -> factory, low,
#: palette size, target color), mirroring test_engine_batch.RULE_CASES
RULE_CASES = {
    "smp": (lambda: SMPRule(), 0, 4, 0),
    "majority": (lambda: ReverseSimpleMajority("prefer-black"), 1, 2, 2),
    "majority-pc": (lambda: ReverseSimpleMajority("prefer-current"), 1, 2, 2),
    "strong-majority": (lambda: ReverseStrongMajority(), 0, 4, 0),
    "plurality": (lambda: GeneralizedPluralityRule(5), 0, 5, 0),
    "ordered": (lambda: OrderedIncrementRule(4), 0, 4, 3),
    "threshold": (lambda: LinearThresholdRule("simple"), 0, 2, 1),
}

#: reference variants of the parity matrix: the rules' own kernel
#: through run_batch ("plain"), through per-row run_synchronous stepping
#: each row to the cap ("no-cycles"), and per-row run_synchronous with
#: the irreversible color (filled per case) on both kernels
#: ("irreversible": run_batch has no irreversible variant)
VARIANTS = ("plain", "no-cycles", "irreversible")


@pytest.fixture(params=sorted(RULE_CASES))
def rule_case(request):
    return request.param


# ----------------------------------------------------------------------
# the parity matrix: compiled vs own kernel x rules x torus kinds x flags
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_backend_parity_matrix(rng, torus_kind, rule_case, compiled, variant):
    topo = TORUS_KINDS[torus_kind](4, 5)
    factory, low, palette, target = RULE_CASES[rule_case]
    rule = factory()
    batch = rng.integers(low, low + palette, size=(24, topo.num_vertices)).astype(
        np.int32
    )
    kwargs = dict(max_rounds=100, target_color=target)
    if variant == "irreversible":
        assert_per_row_matches_own_kernel(
            topo, batch, rule, (rule_case, variant), irreversible_color=target,
            **kwargs,
        )
        return
    res = run_batch(topo, batch, rule, **kwargs)
    assert_matches_own_kernel(
        variant, topo, batch, rule, res, (rule_case, variant), **kwargs
    )


def test_backend_parity_on_padded_irregular_graph(rng, compiled):
    """Padded neighbor tables (degrees 1/2) through the spec'd kernels."""
    import networkx as nx

    topo = GraphTopology(nx.path_graph(7))
    for rule in (
        GeneralizedPluralityRule(4),
        OrderedIncrementRule(3),
        LinearThresholdRule("strong"),
    ):
        palette = getattr(rule, "num_colors", 2)
        batch = rng.integers(0, palette, size=(11, 7)).astype(np.int32)
        stepper = compiled(rule, topo, 11)
        assert np.array_equal(stepper(batch), rule.step_batch(batch, topo))


def test_backend_steppers_tolerate_shrinking_batches(rng, compiled):
    """run_batch retires rows and the registry serves one plan to every
    batch width, so a stepper sees widths that shrink and then grow past
    its compile size; results must not depend on the compile-time
    max_batch, for a fresh compile or a registry-served plan."""
    for case in sorted(RULE_CASES):
        factory, low, palette, _ = RULE_CASES[case]
        rule = factory()
        for kind in sorted(TORUS_KINDS):
            topo = TORUS_KINDS[kind](4, 4)
            fresh = compiled(rule, topo, 16)
            served = raw_stepper_for(rule, topo, 16)
            for b in (16, 7, 1, 40):
                # every width is served the plan compiled at 16
                assert raw_stepper_for(rule, topo, b) is served, (case, kind, b)
                batch = rng.integers(
                    low, low + palette, size=(b, topo.num_vertices)
                ).astype(np.int32)
                want = rule.step_batch(batch, topo)
                for stepper in (fresh, served):
                    assert np.array_equal(stepper(batch), want), (case, kind, b)


def test_backend_validation_errors_match_reference(compiled):
    """Domain validation raises the rule's own ValueError when compiled."""
    topo = ToroidalMesh(3, 3)
    bad = np.full((2, 9), 7, dtype=np.int32)
    for rule in (
        ReverseSimpleMajority("prefer-black"),
        GeneralizedPluralityRule(4),
        OrderedIncrementRule(4),
        LinearThresholdRule("simple"),
    ):
        with pytest.raises(ValueError):
            run_batch(topo, bad, rule, max_rounds=5)


def test_smp_on_irregular_topology_raises_on_every_backend(compiled):
    import networkx as nx

    star = GraphTopology(nx.star_graph(5))
    batch = np.zeros((2, 6), dtype=np.int32)
    with pytest.raises(ValueError):
        run_batch(star, batch, SMPRule(), max_rounds=5)


def test_fractional_plurality_thresholds_fall_back(rng, compiled):
    """A fractional threshold_fn (counts >= 2.5) has no exact integer
    spec; the rule must publish none, so the compiler runs the rule's
    own kernel and stays bitwise-identical."""
    topo = ToroidalMesh(4, 4)
    rule = GeneralizedPluralityRule(4, threshold_fn=lambda d: d / 2 + 0.5)
    assert rule.kernel_spec(topo) is None
    batch = rng.integers(0, 4, size=(16, topo.num_vertices)).astype(np.int32)
    stepper = compiled(rule, topo, 16)
    assert np.array_equal(stepper(batch), rule.step_batch(batch, topo))
    # integral-valued float thresholds are exact and keep the fast path
    exact = GeneralizedPluralityRule(4, threshold_fn=lambda d: np.ceil(d / 2))
    spec = exact.kernel_spec(topo)
    assert spec is not None and spec.thresholds.dtype == np.int64
    stepper = compiled(exact, topo, 16)
    assert np.array_equal(stepper(batch), exact.step_batch(batch, topo))


# ----------------------------------------------------------------------
# the CSR plurality plan on unpadded ("dense") tables beyond degree 4:
# thresholds x palettes x degrees x batch widths, against the rule's own
# step_batch
# ----------------------------------------------------------------------
#: integer thresholds spanning "every color reaches" (0) to "none does"
#: (d + 1), and four far outside the clip range [0, d + 1]; the last two
#: read as 2 (ceil-half on a torus) if truncated to a byte, which would
#: wrongly send them to the SMP plan
PLURALITY_THRESHOLDS = {
    "ceil-half": ceil_half,
    "strong": strong_threshold,
    "zero": lambda d: 0 * d,
    "degree": lambda d: d,
    "degree+1": lambda d: d + 1,
    "2**40": lambda d: 0 * d + 2**40,
    "minus-5": lambda d: 0 * d - 5,
    "2**40+2": lambda d: 0 * d + 2**40 + 2,
    "minus-254": lambda d: 0 * d - 254,
}

#: regular (unpadded) neighbor tables of degree 2, 3 and 4
DENSE_TABLES = {
    "cycle-7": lambda: GraphTopology(nx.cycle_graph(7)),
    "petersen": lambda: GraphTopology(nx.petersen_graph()),
    **{kind: (lambda cls=cls: cls(4, 5)) for kind, cls in TORUS_KINDS.items()},
}

#: batch widths through one stepper compiled at max_batch 8: one row,
#: shrinking, then regrowing past the compile-time capacity
PLURALITY_WIDTHS = (8, 1, 5, 3, 13, 2, 20)


@pytest.mark.parametrize("table", sorted(DENSE_TABLES))
@pytest.mark.parametrize("threshold", sorted(PLURALITY_THRESHOLDS))
def test_dense_plurality_plan_matches_step_batch(rng, compiled, threshold, table):
    topo = DENSE_TABLES[table]()
    assert (topo.neighbors >= 0).all()  # no padding slots
    for palette in range(1, 7):
        rule = GeneralizedPluralityRule(palette, PLURALITY_THRESHOLDS[threshold])
        # the served stepper (ceil-half on a torus compiles to the SMP
        # plan) and the CSR tally built directly from the rule's spec
        served = compiled(rule, topo, 8)
        tally = _PluralityPlan(rule.kernel_spec(topo), topo)
        for b in PLURALITY_WIDTHS:
            batch = rng.integers(0, palette, size=(b, topo.num_vertices))
            batch = batch.astype(np.int32)
            want = rule.step_batch(batch, topo)
            assert np.array_equal(served(batch), want), (palette, b)
            assert np.array_equal(tally(batch), want), (palette, b)


@pytest.mark.parametrize("threshold", ["zero", "ceil-half"])
def test_dense_plurality_plan_counts_past_a_byte_of_colors(rng, compiled, threshold):
    """At threshold 0 all 257 colors reach; a one-byte reach count would
    wrap to 1 and adopt."""
    topo = GraphTopology(nx.cycle_graph(5))
    rule = GeneralizedPluralityRule(257, PLURALITY_THRESHOLDS[threshold])
    batch = rng.integers(0, 257, size=(6, 5)).astype(np.int32)
    batch[0] = 256
    stepper = compiled(rule, topo, 6)
    assert np.array_equal(stepper(batch), rule.step_batch(batch, topo))


@pytest.mark.parametrize("threshold", ["2**40", "minus-5", "2**40+2", "minus-254"])
def test_padded_plurality_plan_clips_extreme_thresholds(rng, compiled, threshold):
    """Thresholds far outside [0, d + 1] on padded (CSR) tables, including
    an isolated vertex (no audible neighbor, so no adoption)."""
    graph = nx.star_graph(5)
    graph.add_node(6)
    for topo in (GraphTopology(nx.path_graph(7)), GraphTopology(graph)):
        assert not (topo.neighbors >= 0).all()
        for palette in (1, 3):
            rule = GeneralizedPluralityRule(
                palette, PLURALITY_THRESHOLDS[threshold]
            )
            batch = rng.integers(0, palette, size=(9, topo.num_vertices))
            batch = batch.astype(np.int32)
            stepper = compiled(rule, topo, 9)
            assert np.array_equal(stepper(batch), rule.step_batch(batch, topo))


def test_compiled_plurality_equals_compiled_smp(rng, compiled, torus_kind):
    """The paper's definition says the two must agree: on a degree-4
    torus the ceil(d/2) plurality rule is SMP.  The compiler serves it
    the SMP plan, so that plan is held, round by round, against the two
    plurality kernels that share no code with it: the CSR tally plan
    built from the rule's own spec (on this unpadded table), and the
    rule's ``step_batch``."""
    topo = TORUS_KINDS[torus_kind](6, 6)
    for palette in range(2, 7):
        rule = GeneralizedPluralityRule(palette)
        served = compiled(rule, topo, 64)
        assert packed_smp(served) is not None, palette
        tally = _PluralityPlan(rule.kernel_spec(topo), topo)
        state = rng.integers(0, palette, size=(64, topo.num_vertices))
        state = state.astype(np.int32)
        for _ in range(6):
            nxt = served(state).copy()
            assert np.array_equal(nxt, tally(state)), palette
            assert np.array_equal(nxt, rule.step_batch(state, topo)), palette
            state = nxt


def test_subclassed_kernel_override_beats_inherited_spec(rng, compiled):
    """A subclass overriding step_batch without republishing kernel_spec
    must run its own kernel — the parent's spec is not authoritative."""

    class NeverRecolor(SMPRule):
        def step_batch(self, colors, topo, out=None):
            if out is None:
                return colors.copy()
            np.copyto(out, colors)
            return out

    topo = ToroidalMesh(4, 4)
    batch = rng.integers(0, 4, size=(8, topo.num_vertices)).astype(np.int32)
    stepper = compiled(NeverRecolor(), topo, 8)
    assert np.array_equal(stepper(batch), batch)
    # a subclass that republishes its spec opts back into the fast path
    from repro.rules import KernelSpec

    class RepublishedSMP(SMPRule):
        def step_batch(self, colors, topo, out=None):
            return SMPRule.step_batch(self, colors, topo, out=out)

        def kernel_spec(self, topo):
            return KernelSpec(kind="smp")

    stepper = compiled(RepublishedSMP(), topo, 8)
    assert np.array_equal(stepper(batch), SMPRule().step_batch(batch, topo))


def test_mixin_kernel_override_beats_inherited_spec(rng, compiled):
    """A kernel supplied by a mixin (not a subclass of the spec's owner)
    must also win over the inherited spec — MRO order decides."""

    class IdentityMixin:
        def step_batch(self, colors, topo, out=None):
            if out is None:
                return colors.copy()
            np.copyto(out, colors)
            return out

    class MixedRule(IdentityMixin, SMPRule):
        pass

    topo = ToroidalMesh(4, 4)
    batch = rng.integers(0, 4, size=(8, topo.num_vertices)).astype(np.int32)
    for stepper in (
        fallback_stepper(MixedRule(), topo), compiled(MixedRule(), topo, 8)
    ):
        assert np.array_equal(stepper(batch), batch)


def test_threshold_cache_is_identity_safe_and_picklable():
    """thresholds_for caches per live topology object (weakref, not id),
    and a warm cache must not break shard pickling."""
    import pickle

    rule = LinearThresholdRule("simple")
    topo = ToroidalMesh(4, 4)
    thr = rule.thresholds_for(topo)
    assert rule.thresholds_for(topo) is thr  # cache hit on same object
    other = ToroidalMesh(2, 8)  # same vertex count, different degrees?
    assert rule.thresholds_for(other) is not thr
    clone = pickle.loads(pickle.dumps(rule))  # warm cache round-trips
    assert np.array_equal(clone.thresholds_for(topo), thr)


def test_custom_rule_without_spec_falls_back(rng, compiled):
    """A rule with no kernel spec runs via its own step_batch everywhere."""

    class Inert(Rule):
        def step(self, colors, topo, out=None):
            if out is None:
                return colors.copy()
            np.copyto(out, colors)
            return out

        def update_vertex(self, current, neighbor_colors):
            return current

    topo = ToroidalMesh(3, 3)
    rule = Inert()
    assert rule.kernel_spec(topo) is None
    batch = rng.integers(0, 3, size=(4, 9)).astype(np.int32)
    res = run_batch(topo, batch, rule, max_rounds=10)
    assert res.converged.all()
    assert np.array_equal(res.final, batch)


def test_compile_stepper_compiles_every_shipped_spec():
    """Shipped rules on a torus get a compiled plan, never the fallback."""
    topo = ToroidalMesh(4, 4)
    for factory, _, _, _ in RULE_CASES.values():
        rule = factory()
        stepper = compile_stepper(rule, topo, 8)
        assert type(stepper).__module__ == "repro.engine.stencil", rule


# ----------------------------------------------------------------------
# seed stability: results and witness ids do not depend on the kernel
# ----------------------------------------------------------------------
def test_random_search_is_backend_independent(compiled):
    topo = ToroidalMesh(4, 4)
    settings = ExecutionSettings(batch_size=128, processes=0)
    with rule_kernel_only():
        ref = random_dynamo_search(
            topo, 3, 5, 4096, 0xBEEF, k=0, monotone_only=True,
            settings=settings,
        )
    out = random_dynamo_search(
        topo, 3, 5, 4096, 0xBEEF, k=0, monotone_only=True, settings=settings,
    )
    assert out.examined == ref.examined
    assert len(out.witnesses) == len(ref.witnesses)
    for (ca, ma), (cb, mb) in zip(out.witnesses, ref.witnesses):
        assert ma == mb and np.array_equal(ca, cb)
    assert ref.found_monotone_dynamo  # the pin is meaningful: hits exist


def test_census_rows_and_witness_ids_are_backend_independent(
    tmp_path, compiled
):
    kwargs = dict(kinds=["mesh"], sizes=[3], random_trials=400)
    ref_db = WitnessDB(tmp_path / "reference.jsonl")
    with rule_kernel_only():
        ref_rows = below_bound_census(db=ref_db, **kwargs)
    db = WitnessDB(tmp_path / "stencil.jsonl")
    rows = below_bound_census(db=db, **kwargs)
    assert rows == ref_rows
    ref_ids = sorted(r.id for r in ref_db)
    assert ref_ids == sorted(r.id for r in db)
    assert ref_ids  # witnesses were actually recorded
    # nothing about how the kernel ran is recorded, so both files match
    assert (tmp_path / "reference.jsonl").read_bytes() == (
        tmp_path / "stencil.jsonl"
    ).read_bytes()
    assert not any("backend" in r.provenance for r in db)
    assert sorted(c.id for c in ref_db.cells) == sorted(c.id for c in db.cells)


def test_cached_census_serves_across_backends(tmp_path, compiled):
    """A census computed on the rules' own kernels serves cache hits to
    the compiled kernel — the definition key is kernel-independent."""
    path = tmp_path / "w.jsonl"
    kwargs = dict(kinds=["mesh"], sizes=[3], random_trials=400)
    with rule_kernel_only():
        first = below_bound_census(db=WitnessDB(path), **kwargs)
    second = below_bound_census(db=WitnessDB(path), **kwargs)
    assert first == second
    assert second.run_stats.cache_hits == second.run_stats.cells == 1


# ----------------------------------------------------------------------
# CLI / driver validation (the --batch-size / --shard-size satellite)
# ----------------------------------------------------------------------
def test_validate_positive():
    from repro.engine.parallel import validate_positive

    assert validate_positive(8, flag="--batch-size") == 8
    assert isinstance(validate_positive(np.int64(8)), int)
    for bad in (0, -3, 2.5, "x", None, True):
        with pytest.raises(ValueError, match="must be"):
            validate_positive(bad, flag="--batch-size")
    # a non-integral value >= 1 is called out as non-integral, not "< 1"
    with pytest.raises(ValueError, match="positive integer"):
        validate_positive(2.5, flag="--batch-size")


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--batch-size", "0"],
        ["census", "--shard-size", "-4"],
        ["census", "--batch-size", "x"],
        ["sweep", "mesh", "4", "--convergence", "--batch-size", "-1"],
        ["sweep", "mesh", "4", "--convergence", "--shard-size", "0"],
        ["search", "mesh", "4", "4", "--seed-size", "3", "--batch-size", "0"],
        ["search", "mesh", "4", "4", "--seed-size", "3", "--shard-size", "0"],
        ["census", "--backend", "stencil"],
    ],
)
def test_cli_rejects_bad_tuning_flags(capsys, argv):
    from repro.cli import build_parser

    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be" in err or "unrecognized arguments: --backend" in err


def test_drivers_reject_nonpositive_sizes():
    from repro.experiments import below_bound_census, convergence_sweep

    with pytest.raises(ValueError, match="batch_size"):
        below_bound_census(kinds=["mesh"], sizes=[3],
                           settings=ExecutionSettings(batch_size=0))
    with pytest.raises(ValueError, match="shard_size"):
        below_bound_census(kinds=["mesh"], sizes=[3],
                           settings=ExecutionSettings(shard_size=-1))
    with pytest.raises(ValueError, match="shard_size"):
        convergence_sweep([("mesh", 4, 4)],
                          settings=ExecutionSettings(shard_size=0))
    with pytest.raises(ValueError, match="shard_size"):
        random_dynamo_search(ToroidalMesh(4, 4), 3, 4, 10, 0,
                             settings=ExecutionSettings(shard_size=0))


# ----------------------------------------------------------------------
# the merged scalar/batched kernel (one kernel per rule)
# ----------------------------------------------------------------------
def test_scalar_step_is_the_batched_kernel(rng, rule_case):
    """`step` runs `step_batch` on a (1, N) view — same values, out= honored."""
    topo = ToroidalMesh(4, 5)
    factory, low, palette, _ = RULE_CASES[rule_case]
    rule = factory()
    colors = rng.integers(low, low + palette, size=topo.num_vertices).astype(
        np.int32
    )
    expect = rule.step_batch(colors[None, :], topo)[0]
    assert np.array_equal(rule.step(colors, topo), expect)
    out = np.empty_like(colors)
    assert rule.step(colors, topo, out=out) is out
    assert np.array_equal(out, expect)


def test_rule_overriding_neither_kernel_raises():
    class Broken(Rule):
        def update_vertex(self, current, neighbor_colors):
            return current

    topo = ToroidalMesh(3, 3)
    colors = np.zeros(9, dtype=np.int32)
    with pytest.raises(TypeError, match="neither step_batch nor step"):
        Broken().step(colors, topo)
    with pytest.raises(TypeError, match="neither step_batch nor step"):
        Broken().step_batch(colors[None, :], topo)
