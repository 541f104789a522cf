"""Irregular-graph engine parity and structural plan caching.

Two contracts are pinned here:

* **bitwise parity off the torus** — the compiled kernel, driven
  through :func:`run_batch`, produces exactly the rule's own
  ``step_batch`` trajectory on padded irregular neighbor tables (stars,
  paths, BA samples, isolated vertices, disconnected pieces), and the
  scalar :meth:`step_reference` oracle agrees vertex by vertex;
* **structural plan caching** — :meth:`GraphTopology.structure_token`
  hashes the degree/neighbor tables, so two instances built from the
  same graph (e.g. pool workers rebuilding one BA seed) share cached
  steppers, while distinct graphs never do.
"""

import numpy as np
import pytest

from repro.engine import clear_plan_cache, plan_cache_stats, run_batch, run_synchronous
from repro.engine.plans import topology_token
from repro.rules import (
    GeneralizedPluralityRule,
    LinearThresholdRule,
    OrderedIncrementRule,
)
from repro.topology import GraphTopology, ToroidalMesh

from helpers import assert_matches_own_kernel

#: irregular-rule cases: factory, palette size, target color
RULE_CASES = {
    "plurality": (lambda: GeneralizedPluralityRule(5), 5, 0),
    "ordered": (lambda: OrderedIncrementRule(4), 4, 3),
    "threshold": (lambda: LinearThresholdRule("simple"), 2, 1),
}


def _graphs():
    """Named irregular topologies covering the padding edge cases."""
    import networkx as nx

    return {
        "star": GraphTopology(nx.star_graph(6)),
        "path": GraphTopology(nx.path_graph(9)),
        "ba": GraphTopology(nx.barabasi_albert_graph(24, 2, seed=7)),
        # vertex 5 is isolated (degree 0: fully padded row)
        "isolated": GraphTopology([(0, 1), (1, 2), (2, 3), (3, 4)],
                                  num_vertices=6),
        "two-pieces": GraphTopology([(0, 1), (1, 2), (0, 2), (3, 4)]),
    }


@pytest.fixture(params=sorted(RULE_CASES))
def rule_case(request):
    return request.param


# ----------------------------------------------------------------------
# parity: compiled vs own kernel x rules x irregular graphs, via run_batch
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", ["plain", "no-cycles"])
def test_irregular_parity_matrix(rng, rule_case, compiled, variant):
    """The reference is the rules' own kernel through run_batch
    ("plain") or per-row run_synchronous to the cap ("no-cycles")."""
    factory, palette, target = RULE_CASES[rule_case]
    for name, topo in _graphs().items():
        rule = factory()
        batch = rng.integers(0, palette, size=(12, topo.num_vertices)).astype(
            np.int32
        )
        res = run_batch(topo, batch, rule, max_rounds=60, target_color=target)
        assert_matches_own_kernel(
            variant, topo, batch, rule, res, (name, rule_case, variant),
            max_rounds=60, target_color=target,
        )


def test_step_batch_matches_scalar_oracle_on_irregular_graphs(rng, rule_case):
    """One round of the vectorized kernel == update_vertex at every vertex."""
    factory, palette, _ = RULE_CASES[rule_case]
    for name, topo in _graphs().items():
        rule = factory()
        block = rng.integers(0, palette, size=(4, topo.num_vertices)).astype(
            np.int32
        )
        stepped = rule.step_batch(block, topo)
        for i in range(block.shape[0]):
            expect = rule.step_reference(block[i], topo)
            assert np.array_equal(stepped[i], expect), (name, rule_case, i)


def test_run_batch_row_matches_run_synchronous_on_graph(rng, rule_case):
    factory, palette, target = RULE_CASES[rule_case]
    topo = _graphs()["ba"]
    rule = factory()
    colors = rng.integers(0, palette, size=topo.num_vertices).astype(np.int32)
    scalar = run_synchronous(topo, colors, rule, max_rounds=60,
                             target_color=target, detect_cycles=False)
    batched = run_batch(topo, colors[None, :], rule, max_rounds=60,
                        target_color=target)
    assert np.array_equal(batched.final[0], scalar.final)
    assert int(batched.rounds[0]) == scalar.rounds
    assert bool(batched.converged[0]) == scalar.converged
    assert bool(batched.monotone[0]) == bool(scalar.monotone)


def test_isolated_vertices_never_recolor(rng):
    topo = _graphs()["isolated"]
    rule = GeneralizedPluralityRule(4)
    batch = rng.integers(0, 4, size=(8, topo.num_vertices)).astype(np.int32)
    res = run_batch(topo, batch, rule, max_rounds=40)
    assert np.array_equal(res.final[:, 5], batch[:, 5])


# ----------------------------------------------------------------------
# GraphTopology construction validation
# ----------------------------------------------------------------------
def test_graph_rejects_out_of_range_vertex_ids():
    with pytest.raises(ValueError, match=r"outside \[0, 2\)"):
        GraphTopology([(0, 1), (1, -1)])
    with pytest.raises(ValueError, match="smaller than largest edge endpoint"):
        GraphTopology([(0, 4)], num_vertices=2)


def test_graph_rejects_self_loops():
    with pytest.raises(ValueError, match="self-loop at vertex 2"):
        GraphTopology([(0, 1), (2, 2)])


def test_graph_ignores_duplicate_edges():
    topo = GraphTopology([(0, 1), (1, 0), (0, 1)])
    assert topo.degrees.tolist() == [1, 1]
    assert topo.neighbors.tolist() == [[1], [0]]


# ----------------------------------------------------------------------
# structural tokens and stepper-cache sharing
# ----------------------------------------------------------------------
def _same_ba(seed=11):
    import networkx as nx

    return GraphTopology(nx.barabasi_albert_graph(20, 2, seed=seed))


def test_structure_token_is_content_addressed():
    a, b = _same_ba(), _same_ba()
    assert a is not b
    assert a.structure_token() == b.structure_token()
    assert a.structure_token()[0] == "graph"
    assert a.structure_token() != _same_ba(seed=12).structure_token()
    # shape is part of the hash: same bytes, different table width, differ
    assert (GraphTopology([(0, 1)]).structure_token()
            != GraphTopology([(0, 1), (1, 2)]).structure_token())


def test_structure_token_defaults_to_none_on_tori():
    assert ToroidalMesh(4, 4).structure_token() is None


def test_topology_token_uses_structure_token():
    a, b = _same_ba(), _same_ba()
    assert topology_token(a) == topology_token(b)
    assert topology_token(a) != topology_token(_same_ba(seed=12))


def test_plan_cache_shared_across_equal_graph_instances(rng):
    clear_plan_cache()
    try:
        rule = GeneralizedPluralityRule(4)
        batch = rng.integers(0, 4, size=(6, 20)).astype(np.int32)
        res_a = run_batch(_same_ba(), batch, rule, max_rounds=30)
        s = plan_cache_stats()
        assert (s.hits, s.misses) == (0, 1)
        # a fresh instance of the same graph hits the cached stepper
        res_b = run_batch(_same_ba(), batch, rule, max_rounds=30)
        s = plan_cache_stats()
        assert (s.hits, s.misses) == (1, 1)
        assert np.array_equal(res_a.final, res_b.final)
        # a structurally different graph compiles its own stepper
        run_batch(_same_ba(seed=12), batch, rule, max_rounds=30)
        assert plan_cache_stats().misses == 2
    finally:
        clear_plan_cache()
