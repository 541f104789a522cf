"""Complement-coloring search tests."""

import itertools

import helpers
import numpy as np
import pytest
from helpers import reference_dynamo_complement

import repro.core.complement as complement_module
import repro.engine.batch as batch_module
import repro.engine.plans as plans_module
import repro.experiments.census as census_module
from repro import obs
from repro.core import (
    find_dynamo_complement,
    is_monotone_dynamo,
    minimum_palette_complement,
    theorem2_mesh_dynamo,
)
from repro.core.complement import LEAF_BLOCK
from repro.core.diagonal import diagonal_seed
from repro.engine.context import ExecutionSettings
from repro.engine.parallel import RunCancelled
from repro.engine.plans import clear_plan_cache, plan_cache_stats
from repro.experiments import below_bound_census
from repro.obs.report import summarize_stream
from repro.rules import SMPRule
from repro.topology import ToroidalMesh, TorusCordalis
from repro.topology.lattice import OpenMesh
from repro.topology.tori import make_torus


def test_rejects_bad_inputs():
    topo = ToroidalMesh(3, 3)
    with pytest.raises(ValueError):
        find_dynamo_complement(topo, [99], 0, [1, 2])
    with pytest.raises(ValueError):
        find_dynamo_complement(topo, [0], 0, [0, 1])  # palette contains k


def test_finds_triangle_split_for_3x3_diagonal():
    topo = ToroidalMesh(3, 3)
    diag = [topo.vertex_index(i, i) for i in range(3)]
    colors = find_dynamo_complement(topo, diag, 0, [1, 2])
    assert colors is not None
    assert is_monotone_dynamo(topo, colors, 0)
    assert np.array_equal(np.flatnonzero(colors == 0), np.asarray(diag))


def test_minimum_palette_is_two_for_3x3_diagonal():
    topo = ToroidalMesh(3, 3)
    diag = [topo.vertex_index(i, i) for i in range(3)]
    p, colors = minimum_palette_complement(topo, diag, 0)
    assert p == 2
    assert is_monotone_dynamo(topo, colors, 0)


def test_one_color_complement_impossible_for_diagonal():
    # a monochromatic complement ties every staircase vertex: no dynamo
    topo = ToroidalMesh(3, 3)
    diag = [topo.vertex_index(i, i) for i in range(3)]
    assert find_dynamo_complement(topo, diag, 0, [1]) is None


def test_impossible_seed_returns_none():
    # a single vertex can never grow (no second k anywhere)
    topo = ToroidalMesh(3, 3)
    assert find_dynamo_complement(topo, [4], 0, [1, 2, 3]) is None


def test_theorem2_seed_four_total_colors_achievable_on_4x4():
    """Reproduction finding: a non-stripe complement achieves the paper's
    |C| >= 4 on the 4x4 mesh where stripes need 5."""
    con = theorem2_mesh_dynamo(4, 4)
    assert con.num_colors == 5  # the stripe construction's palette
    p, colors = minimum_palette_complement(
        con.topo, np.flatnonzero(con.seed), con.k
    )
    assert p == 3  # 3 non-k colors -> |C| = 4
    assert is_monotone_dynamo(con.topo, colors, con.k)


def test_non_monotone_search_is_weaker_or_equal():
    topo = ToroidalMesh(3, 3)
    diag = [topo.vertex_index(i, i) for i in range(3)]
    relaxed = minimum_palette_complement(topo, diag, 0, require_monotone=False)
    strict = minimum_palette_complement(topo, diag, 0, require_monotone=True)
    assert relaxed is not None and strict is not None
    assert relaxed[0] <= strict[0]


def test_works_on_cordalis():
    topo = TorusCordalis(4, 4)
    diag = [topo.vertex_index(i, i) for i in range(4)]
    found = minimum_palette_complement(topo, diag, 0, max_nodes=500_000)
    assert found is not None
    p, colors = found
    assert is_monotone_dynamo(topo, colors, 0)
    assert p <= 3


def test_budget_exhaustion_returns_none():
    topo = ToroidalMesh(4, 4)
    diag = [topo.vertex_index(i, i) for i in range(4)]
    # a 1-node budget cannot possibly finish
    assert (
        find_dynamo_complement(topo, diag, 0, [1, 2], max_nodes=1) is None
    )


# ---------------------------------------------------------------------------
# input validation happens before the first node is visited
# ---------------------------------------------------------------------------


def test_rejects_negative_colors_before_searching():
    # a negative color would read as the unassigned sentinel mid-search
    topo = ToroidalMesh(3, 3)
    with pytest.raises(ValueError, match="non-negative"):
        find_dynamo_complement(topo, [0, 4, 8], 0, [-2, 1], max_nodes=3)
    with pytest.raises(ValueError, match="non-negative"):
        find_dynamo_complement(topo, [0, 4, 8], -1, [1, 2], max_nodes=3)


def test_rejects_bad_round_cap_before_searching():
    topo = ToroidalMesh(3, 3)
    with pytest.raises(ValueError, match="max_rounds"):
        find_dynamo_complement(
            topo, [0, 4, 8], 0, [1, 2], max_nodes=1, max_rounds=-1
        )


# ---------------------------------------------------------------------------
# parity with the scalar reference DFS (tests/helpers.py)
# ---------------------------------------------------------------------------


def _assert_same(got, want):
    if want is None:
        assert got is None
    else:
        assert got is not None and got.dtype == want.dtype == np.int32
        assert np.array_equal(got, want)


def _random_case(i):
    rng = np.random.default_rng([0xC0, i])
    kind = str(rng.choice(["mesh", "cordalis", "serpentinus"]))
    n = int(rng.integers(3, 6))
    topo = make_torus(kind, n, n)
    if rng.random() < 0.5:
        seed = diagonal_seed(topo)
    else:
        size = int(rng.integers(1, 2 * n))
        seed = rng.choice(n * n, size=size, replace=False).tolist()
    k = int(rng.integers(0, 3))
    palette = [c for c in range(6) if c != k][: int(rng.integers(1, 5))]
    kwargs = dict(
        require_monotone=bool(rng.random() < 0.7),
        max_nodes=int(rng.choice([40, 300, 1000, 3000])),
        max_rounds=None if rng.random() < 0.75 else int(rng.integers(0, 5)),
    )
    return topo, seed, k, palette, kwargs


@pytest.mark.parametrize("case", range(32))
def test_matches_scalar_reference(case):
    topo, seed, k, palette, kwargs = _random_case(case)
    want = reference_dynamo_complement(topo, seed, k, palette, **kwargs)
    _assert_same(find_dynamo_complement(topo, seed, k, palette, **kwargs), want)


@pytest.mark.parametrize("max_rounds", [0, 1, 2, 3, None])
@pytest.mark.parametrize("kind", ["mesh", "cordalis"])
def test_round_cap_parity(kind, max_rounds):
    topo = make_torus(kind, 4, 4)
    seed = diagonal_seed(topo)
    for palette in ([1, 2], [1, 2, 3]):
        kwargs = dict(max_nodes=20_000, max_rounds=max_rounds)
        want = reference_dynamo_complement(topo, seed, 0, palette, **kwargs)
        _assert_same(find_dynamo_complement(topo, seed, 0, palette, **kwargs), want)


def test_random_parity_cases_include_witnesses():
    found = 0
    for case in range(32):
        topo, seed, k, palette, kwargs = _random_case(case)
        found += find_dynamo_complement(topo, seed, k, palette, **kwargs) is not None
    assert 3 <= found < 32


def _reference_trace(topo, seed, k, palette, max_nodes, require_monotone=True):
    """Run the reference DFS and log its visits in order: ``None`` for each
    child it enters (a prune that did not fire), the verdict for each leaf."""
    events = []
    real_prune, real_run = helpers.prune_to_core, helpers.run_synchronous

    def prune(*args, **kwargs):
        core = real_prune(*args, **kwargs)
        if not core.any():
            events.append(None)
        return core

    def run(*args, **kwargs):
        res = real_run(*args, **kwargs)
        ok = res.is_dynamo_run(k) and (not require_monotone or bool(res.monotone))
        events.append(ok)
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(helpers, "prune_to_core", prune)
        mp.setattr(helpers, "run_synchronous", run)
        result = reference_dynamo_complement(
            topo, seed, k, palette, max_nodes=max_nodes,
            require_monotone=require_monotone,
        )
    return result, events


def _budget_through_leaf(events, leaf):
    """The node budget that ends exactly on the ``leaf``-th leaf (1-based)."""
    seen = 0
    for i, event in enumerate(events):
        if event is not None:
            seen += 1
            if seen == leaf:
                # the root plus every child entered up to this leaf
                return 1 + events[:i].count(None)
    raise AssertionError(f"trace holds only {seen} leaves")


def _leaf_pass_positions(events):
    leaves = [e for e in events if e is not None]
    return [i + 1 for i, ok in enumerate(leaves) if ok]


@pytest.fixture(scope="module")
def open_cell_trace():
    """The open cell (cordalis 6x6 diagonal, palette {1,2,3}): no witness
    within reach, and a leaf at about every other node."""
    topo = make_torus("cordalis", 6, 6)
    seed = diagonal_seed(topo)
    result, events = _reference_trace(topo, seed, 0, [1, 2, 3], max_nodes=1500)
    assert result is None and not _leaf_pass_positions(events)
    return topo, seed, events


@pytest.mark.parametrize("leaves", [1, 100, 255, 256, 257, 300])
def test_budget_parity_at_block_edges(monkeypatch, open_cell_trace, leaves):
    topo, seed, events = open_cell_trace
    budget = _budget_through_leaf(events, leaves)
    blocks = []
    real = batch_module.run_batch

    def counting(*args, **kwargs):
        res = real(*args, **kwargs)
        blocks.append(res.batch_size)
        return res

    monkeypatch.setattr(batch_module, "run_batch", counting)
    assert find_dynamo_complement(topo, seed, 0, [1, 2, 3], max_nodes=budget) is None
    # every leaf is verified: full blocks, then the remainder unpadded
    full, rest = divmod(leaves, LEAF_BLOCK)
    assert blocks == [LEAF_BLOCK] * full + ([rest] if rest else [])


#: inputs whose first passing leaf sits on a block edge (found by scanning
#: random seeds; the trace re-derives the position every run)
EDGE_WITNESSES = {
    "last-row-of-block": (
        ("serpentinus", 5, [0, 1, 2, 3, 7, 13, 24], [1, 2, 3]), LEAF_BLOCK,
    ),
    "first-row-of-block": (
        ("mesh", 5, [2, 6, 8, 15, 16, 18, 20, 22, 24], [1, 2, 3, 4]),
        LEAF_BLOCK + 1,
    ),
}


@pytest.mark.parametrize("edge", sorted(EDGE_WITNESSES))
def test_witness_on_block_edge(edge):
    (kind, n, seed, palette), position = EDGE_WITNESSES[edge]
    topo = make_torus(kind, n, n)
    want, events = _reference_trace(topo, seed, 0, palette, max_nodes=20_000)
    assert want is not None
    assert _leaf_pass_positions(events)[0] == position
    _assert_same(find_dynamo_complement(topo, seed, 0, palette, max_nodes=20_000), want)
    # a budget ending on the witness leaf still finds it; one node less cannot
    budget = _budget_through_leaf(events, position)
    for nodes, expect in ((budget, want), (budget - 1, None)):
        _assert_same(
            reference_dynamo_complement(topo, seed, 0, palette, max_nodes=nodes),
            expect,
        )
        _assert_same(
            find_dynamo_complement(topo, seed, 0, palette, max_nodes=nodes),
            expect,
        )


def test_disagreeing_engines_raise(monkeypatch):
    # a leaf run_batch passes but run_synchronous rejects is never returned
    topo = ToroidalMesh(3, 3)
    diag = [topo.vertex_index(i, i) for i in range(3)]
    real = complement_module.run_synchronous

    def rejecting(*args, **kwargs):
        res = real(*args, **kwargs)
        res.converged = False
        return res

    monkeypatch.setattr(complement_module, "run_synchronous", rejecting)
    with pytest.raises(RuntimeError, match="disagree"):
        find_dynamo_complement(topo, diag, 0, [1, 2])


# ---------------------------------------------------------------------------
# plan cache: leaf blocks of every height share one stepper per topology
# ---------------------------------------------------------------------------


@pytest.fixture
def fresh_plan_cache():
    """An empty stepper registry of the default size, whatever bound an
    earlier test left behind."""
    clear_plan_cache(maxsize=plans_module._DEFAULT_CACHE_SIZE)
    yield
    clear_plan_cache(maxsize=plans_module._DEFAULT_CACHE_SIZE)


def test_leaf_blocks_compile_one_stepper_per_topology(fresh_plan_cache):
    topo = make_torus("cordalis", 6, 6)
    seed = diagonal_seed(topo)
    # final blocks of different heights, none padded
    for budget in (300, 700, 1500):
        assert find_dynamo_complement(topo, seed, 0, [1, 2, 3], max_nodes=budget) is None
    stats = plan_cache_stats()
    assert (stats.misses, stats.evictions) == (1, 0)


def test_cold_census_evicts_no_stepper(fresh_plan_cache, tmp_path):
    below_bound_census(sizes=(3, 4, 5), db=tmp_path / "w.jsonl")
    stats = plan_cache_stats()
    # one plan per (rule, torus): SMP on 3 kinds x 3 sizes, whatever the
    # widths of the scans, the exhaustive search and the DFS leaf blocks
    assert (stats.misses, stats.size, stats.evictions) == (9, 9, 0)
    tori = {key[1] for key in plans_module._STEPPER_CACHE._data}
    assert len(tori) == 9


# ---------------------------------------------------------------------------
# cancellation and telemetry
# ---------------------------------------------------------------------------


def _tripping_probe(after):
    calls = []

    def probe():
        calls.append(None)
        return len(calls) >= after

    return probe, calls


def test_cancel_stops_the_open_cell():
    topo = make_torus("cordalis", 6, 6)
    probe, calls = _tripping_probe(3)
    with pytest.raises(RunCancelled):
        find_dynamo_complement(
            topo, diagonal_seed(topo), 0, [1, 2, 3], max_nodes=8_000_000,
            cancel=probe,
        )
    assert len(calls) == 3


def test_census_cancel_reaches_the_complement_search(monkeypatch):
    probe, calls = _tripping_probe(4)
    real = census_module.diagonal_dynamo
    seen = []

    def bounded(n, kind, **kwargs):
        seen.append(kwargs["cancel"])
        # keep the open cell's search short should cancellation not trip
        return real(n, kind, **{**kwargs, "max_nodes": 50_000})

    monkeypatch.setattr(census_module, "diagonal_dynamo", bounded)
    with pytest.raises(RunCancelled):
        below_bound_census(
            kinds=("cordalis",), sizes=(6,), settings=ExecutionSettings(cancel=probe)
        )
    # one check at the cell boundary, the rest inside the DFS
    assert seen == [probe] and len(calls) == 4


def test_telemetry_counts_nodes_and_leaves_without_changing_results(tmp_path):
    topo = TorusCordalis(4, 4)
    diag = [topo.vertex_index(i, i) for i in range(4)]
    plain = [
        find_dynamo_complement(topo, diag, 0, p, max_nodes=600)
        for p in ([1], [1, 2], [1, 2, 3])
    ]
    path = tmp_path / "dfs.tel"
    with obs.telemetry_session(path, command="unit"):
        traced = [
            find_dynamo_complement(topo, diag, 0, p, max_nodes=600)
            for p in ([1], [1, 2], [1, 2, 3])
        ]
    for got, want in zip(traced, plain):
        _assert_same(got, want)
    counters = summarize_stream(path)["counters"]
    assert 0 < counters["complement.leaves"] <= counters["complement.nodes"] <= 1800


# ---------------------------------------------------------------------------
# the integer seed guard, the vectorised tail and its node accounting
# ---------------------------------------------------------------------------


def test_seed_guard_matches_update_vertex_exhaustively():
    rule = SMPRule()
    grid = np.array(list(itertools.product(range(6), repeat=4)), dtype=np.int32)
    for k in range(6):
        want = np.array([rule.update_vertex(k, row.tolist()) != k for row in grid])
        scalar = [complement_module._seed_leaves(k, *row.tolist()) for row in grid]
        assert scalar == want.tolist()
        assert np.array_equal(complement_module._seed_leaves_rows(k, *grid.T), want)
        # a neighbor outside the tail enters the array form as a scalar
        for a in range(6):
            rows = grid[:, 0] == a
            got = complement_module._seed_leaves_rows(k, a, *grid[rows, 1:].T)
            assert np.array_equal(got, want[rows])


def test_guard_of_another_degree_raises():
    topo = OpenMesh(3, 3)  # corner seeds have two neighbors
    with pytest.raises(ValueError, match="degree-4"):
        find_dynamo_complement(topo, [0], 0, [1, 2], max_nodes=1)


def _counted(monkeypatch, *args, **kwargs):
    """Run the DFS; its result and its ``complement.*`` counter totals."""
    totals = {"complement.nodes": 0, "complement.leaves": 0}
    real = obs.count

    def count(name, n=1):
        if name in totals:
            assert n >= 0, (name, n)  # progress is reported as it is made
            totals[name] += n
        real(name, n)

    monkeypatch.setattr(obs, "count", count)
    result = find_dynamo_complement(*args, **kwargs)
    monkeypatch.setattr(obs, "count", real)
    return result, totals["complement.nodes"], totals["complement.leaves"]


def _leaves_within(events, budget):
    """Leaves the reference verifies when its node budget is ``budget``."""
    leaves = sum(event is not None for event in events)
    return sum(
        _budget_through_leaf(events, leaf) <= budget for leaf in range(1, leaves + 1)
    )


#: witness-free searches that exhaust their space: (kind, n, seed, palette,
#: require_monotone), with the palette size deciding how much of the tree
#: the tail expands (every cell for one or two colors on these tori)
EXHAUSTED = [
    ("mesh", 4, [1, 2, 5, 11], [1], False),
    ("cordalis", 3, [0, 1, 6, 7], [1], True),
    ("mesh", 4, [1, 3, 11], [1, 2], True),
    ("mesh", 4, [1, 2, 5, 6, 8, 9], [1, 2], False),
    ("serpentinus", 4, [6], [1, 2], True),  # blocked inside the tail
    ("cordalis", 4, [2, 4, 6, 8, 15], [1, 2, 3], True),
    ("mesh", 3, [2], [1, 2, 3], False),  # blocked inside the tail
    ("serpentinus", 3, [3, 5], [1, 2, 3, 4], True),
    ("mesh", 3, [3], [1, 2, 3, 4], True),  # blocked inside the tail
]


@pytest.fixture(scope="module", params=EXHAUSTED, ids=lambda case: "-".join(
    str(part) for part in (case[0], case[1], len(case[3]), case[4])
))
def exhausted_trace(request):
    kind, n, seed, palette, monotone = request.param
    topo = make_torus(kind, n, n)
    result, events = _reference_trace(
        topo, seed, 0, palette, max_nodes=20_000, require_monotone=monotone
    )
    nodes = 1 + events.count(None)
    assert result is None and nodes < 20_000
    return topo, seed, palette, monotone, events, nodes


def test_nodes_match_the_reference_when_the_space_is_exhausted(
    monkeypatch, exhausted_trace
):
    topo, seed, palette, monotone, events, nodes = exhausted_trace
    got = _counted(
        monkeypatch, topo, seed, 0, palette, max_nodes=20_000,
        require_monotone=monotone,
    )
    assert got == (None, nodes, _leaves_within(events, nodes))


def test_nodes_equal_the_budget_when_it_binds(monkeypatch, exhausted_trace):
    topo, seed, palette, monotone, events, nodes = exhausted_trace
    budgets = sorted(set(range(1, nodes, max(1, nodes // 25))) | {nodes - 1})
    for budget in budgets:
        got = _counted(
            monkeypatch, topo, seed, 0, palette, max_nodes=budget,
            require_monotone=monotone,
        )
        assert got == (None, budget, _leaves_within(events, budget)), budget


#: searches whose first witness lies inside a tail that starts below the
#: root: (kind, n, seed, palette, require_monotone)
TAIL_WITNESSES = [
    ("cordalis", 4, [1, 3, 7, 11, 14], [1, 2, 3], True),
    ("mesh", 5, [1, 8, 9, 12, 13, 16], [1, 2, 3], True),
    ("serpentinus", 4, [2, 7, 9], [1, 2, 3, 4], True),  # second block
    ("serpentinus", 3, [2, 6], [1, 2, 3, 4], False),
]


@pytest.mark.parametrize("case", TAIL_WITNESSES, ids=lambda case: case[0])
def test_budget_sweep_around_a_witness_inside_the_tail(monkeypatch, case):
    kind, n, seed, palette, monotone = case
    topo = make_torus(kind, n, n)
    cells = complement_module._wavefront_order(topo, np.asarray(seed))
    assert 0 < len(cells) - complement_module._tail_length(len(palette), len(cells))
    want, events = _reference_trace(
        topo, seed, 0, palette, max_nodes=20_000, require_monotone=monotone
    )
    assert want is not None
    position = _leaf_pass_positions(events)[0]
    through = _budget_through_leaf(events, position)
    for budget in range(max(1, through - 12), through + 4):
        got, nodes, leaves = _counted(
            monkeypatch, topo, seed, 0, palette, max_nodes=budget,
            require_monotone=monotone,
        )
        if budget < through:
            _assert_same(got, None)
            assert (nodes, leaves) == (budget, _leaves_within(events, budget))
        else:
            _assert_same(got, want)
            assert through <= nodes <= budget and leaves >= position


def test_witness_filling_a_block_stops_the_count_on_its_leaf(monkeypatch):
    (kind, n, seed, palette), position = EDGE_WITNESSES["last-row-of-block"]
    topo = make_torus(kind, n, n)
    _, events = _reference_trace(topo, seed, 0, palette, max_nodes=20_000)
    got, nodes, leaves = _counted(monkeypatch, topo, seed, 0, palette, max_nodes=20_000)
    assert got is not None
    assert (nodes, leaves) == (_budget_through_leaf(events, position), LEAF_BLOCK)
