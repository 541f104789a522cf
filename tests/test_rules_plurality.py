"""Generalized plurality rule: the arbitrary-degree SMP extension."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rules import (
    GeneralizedPluralityRule,
    SMPRule,
    ceil_half,
    strong_threshold,
)
from repro.topology import GraphTopology, ToroidalMesh

from helpers import random_coloring


def test_threshold_functions():
    assert ceil_half(4) == 2 and ceil_half(5) == 3 and ceil_half(1) == 1
    assert strong_threshold(4) == 3 and strong_threshold(5) == 3
    deg = np.array([1, 2, 3, 4, 5])
    assert np.array_equal(ceil_half(deg), [1, 1, 2, 2, 3])
    assert np.array_equal(strong_threshold(deg), [1, 2, 2, 3, 3])


def test_invalid_num_colors():
    with pytest.raises(ValueError):
        GeneralizedPluralityRule(0)


def test_rejects_out_of_palette_colors():
    topo = ToroidalMesh(3, 3)
    rule = GeneralizedPluralityRule(num_colors=2)
    with pytest.raises(ValueError):
        rule.step(np.full(9, 5, dtype=np.int32), topo)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), num_colors=st.integers(2, 5))
def test_reduces_to_smp_on_four_regular(seed, num_colors):
    """On degree-4 tori the ceil(d/2) plurality rule IS the SMP rule."""
    rng = np.random.default_rng(seed)
    topo = ToroidalMesh(4, 5)
    colors = rng.integers(0, num_colors, size=topo.num_vertices).astype(np.int32)
    plur = GeneralizedPluralityRule(num_colors=num_colors).step(colors, topo)
    smp = SMPRule().step(colors, topo)
    assert np.array_equal(plur, smp)


def test_step_matches_scalar_oracle_on_irregular_graph(rng):
    g = nx.random_regular_graph(3, 10, seed=7)
    g.add_edge(0, 5)  # perturb regularity
    topo = GraphTopology(g)
    rule = GeneralizedPluralityRule(num_colors=4)
    for _ in range(5):
        colors = random_coloring(topo, 4, rng)
        assert np.array_equal(
            rule.step(colors, topo), rule.step_reference(colors, topo)
        )


def test_star_hub_follows_leaves():
    # hub of a 5-star with 3 leaves of color 1: threshold ceil(5/2)=3 -> adopt
    topo = GraphTopology(nx.star_graph(5))
    colors = np.array([0, 1, 1, 1, 2, 3], dtype=np.int32)
    out = GeneralizedPluralityRule(num_colors=4).step(colors, topo)
    assert out[0] == 1
    # leaves have degree 1, threshold 1: they adopt the hub's color iff it
    # is the unique color reaching 1 (it is — single neighbor)
    assert np.all(out[1:] == colors[0])


def test_tie_on_even_split_keeps():
    topo = GraphTopology(nx.star_graph(4))
    colors = np.array([7, 1, 1, 2, 2], dtype=np.int32)
    out = GeneralizedPluralityRule(num_colors=8).step(colors, topo)
    assert out[0] == 7


def test_degree_zero_vertex_never_changes():
    topo = GraphTopology([(0, 1)], num_vertices=3)  # vertex 2 isolated
    colors = np.array([0, 0, 1], dtype=np.int32)
    out = GeneralizedPluralityRule(num_colors=2).step(colors, topo)
    assert out[2] == 1


def test_strong_threshold_variant_is_stricter(rng):
    topo = ToroidalMesh(4, 4)
    colors = random_coloring(topo, 3, rng)
    simple = GeneralizedPluralityRule(3, ceil_half).step(colors, topo)
    strong = GeneralizedPluralityRule(3, strong_threshold).step(colors, topo)
    strong_changed = strong != colors
    # every strong change is also a simple change with the same outcome
    assert np.array_equal(strong[strong_changed], simple[strong_changed])


def test_scalar_oracle_degree_zero():
    rule = GeneralizedPluralityRule(num_colors=3)
    assert rule.update_vertex(2, []) == 2
