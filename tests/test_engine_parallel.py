"""Cross-process sharding layer tests.

The contract under test (repro.engine.parallel): shard RNG streams are
derived from shard *coordinates*, partials reduce in shard order, so
``convergence_sweep`` / ``below_bound_census`` / ``random_dynamo_search``
are **bitwise-identical at any process count** — plus the shared
process-count validation every driver routes through.
"""

import numpy as np
import pytest

from repro.core import random_dynamo_search
from repro.engine import ExecutionSettings
from repro.engine.parallel import (
    kind_tag,
    resolve_processes,
    run_sharded,
    shard_counts,
    shard_seed,
    topology_spec,
    validate_processes,
)
from repro.experiments import below_bound_census, convergence_sweep, sweep_rounds
from repro.experiments.sweeps import square_points
from repro.topology import ToroidalMesh, TorusCordalis


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------
def test_validate_processes_accepts_valid_counts():
    assert validate_processes(None) is None
    assert validate_processes(0) == 0
    assert validate_processes(3) == 3


@pytest.mark.parametrize("bad", [-1, -2, 2.5, "four", True, False])
def test_validate_processes_rejects_invalid(bad):
    with pytest.raises(ValueError, match="processes"):
        validate_processes(bad)


def test_sweep_rounds_rejects_negative_processes():
    """Regression: processes=-2 used to reach mp.Pool(-2) and die with an
    opaque ValueError; the shared validator now rejects it up front."""
    with pytest.raises(ValueError, match="processes must be >= 0"):
        sweep_rounds(square_points("mesh", [4, 5]), processes=-2)


def test_drivers_share_process_validation():
    points = square_points("mesh", [4])
    bad = ExecutionSettings(processes=-1)
    with pytest.raises(ValueError, match="processes"):
        convergence_sweep(points, replicas=4, settings=bad)
    with pytest.raises(ValueError, match="processes"):
        below_bound_census(kinds=["mesh"], sizes=[4], settings=bad)
    with pytest.raises(ValueError, match="processes"):
        random_dynamo_search(ToroidalMesh(3, 3), 3, 3, 10, 7, settings=bad)


def test_resolve_processes_caps_at_units():
    import multiprocessing as mp

    assert resolve_processes(8, 3) == 3
    assert resolve_processes(0, 3) == 0
    assert resolve_processes(None, 2) == min(mp.cpu_count(), 2)


def test_shard_counts_partitions_exactly():
    assert shard_counts(10, 4) == [4, 4, 2]
    assert shard_counts(8, 4) == [4, 4]
    assert shard_counts(3, 8) == [3]
    assert shard_counts(0, 8) == []
    with pytest.raises(ValueError):
        shard_counts(8, 0)
    with pytest.raises(ValueError):
        shard_counts(-1, 8)


def test_shard_seed_is_coordinate_derived():
    a = np.random.default_rng(shard_seed(7, "mesh", 4, 4, 0)).integers(0, 100, 8)
    b = np.random.default_rng(shard_seed(7, "mesh", 4, 4, 0)).integers(0, 100, 8)
    c = np.random.default_rng(shard_seed(7, "mesh", 4, 4, 1)).integers(0, 100, 8)
    d = np.random.default_rng(shard_seed(7, "cordalis", 4, 4, 0)).integers(0, 100, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert kind_tag("mesh") != kind_tag("cordalis")


def test_topology_spec_roundtrip():
    assert topology_spec(ToroidalMesh(4, 5)) == ("mesh", 4, 5)
    assert topology_spec(TorusCordalis(3, 3)) == ("cordalis", 3, 3)


def _square(x):
    return x * x


def test_run_sharded_preserves_order():
    inline = run_sharded(_square, range(10), processes=0)
    pooled = run_sharded(_square, range(10), processes=3)
    assert inline == pooled == [i * i for i in range(10)]


def _square_or_fail(x):
    if x == 3:
        raise KeyError(f"shard {x} is bad")
    return x * x


@pytest.mark.parametrize("processes", [0, 2])
def test_run_sharded_fails_fast_with_the_workers_own_exception(processes):
    """No retry budget and no checkpoint: the first failing shard's own
    exception surfaces unwrapped (not a ShardError), inline and pooled."""
    with pytest.raises(KeyError) as exc_info:
        run_sharded(_square_or_fail, range(8), processes=processes)
    assert exc_info.type is KeyError
    assert exc_info.value.args == ("shard 3 is bad",)


# ----------------------------------------------------------------------
# process-count parity: bitwise-identical at 0, 1, and 4 processes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("processes", [1, 4])
def test_convergence_sweep_process_parity(processes):
    points = square_points("mesh", [4]) + square_points("cordalis", [4])
    inline = convergence_sweep(
        points, replicas=48, seed=99,
        settings=ExecutionSettings(processes=0, shard_size=16, batch_size=16),
    )
    sharded = convergence_sweep(
        points, replicas=48, seed=99,
        settings=ExecutionSettings(
            processes=processes, shard_size=16, batch_size=16
        ),
    )
    assert np.array_equal(inline, sharded)


@pytest.mark.parametrize("processes", [1, 4])
def test_census_process_parity(processes):
    kwargs = dict(kinds=["mesh", "cordalis"], sizes=[4], random_trials=800)
    assert below_bound_census(
        **kwargs, settings=ExecutionSettings(processes=0, shard_size=256)
    ) == below_bound_census(
        **kwargs,
        settings=ExecutionSettings(processes=processes, shard_size=256),
    )


@pytest.mark.parametrize("processes", [1, 4])
def test_random_search_process_parity(processes):
    topo = ToroidalMesh(3, 3)
    a = random_dynamo_search(
        topo, 3, 3, 1000, [7, 11],
        settings=ExecutionSettings(processes=0, shard_size=128),
    )
    b = random_dynamo_search(
        topo, 3, 3, 1000, [7, 11],
        settings=ExecutionSettings(processes=processes, shard_size=128),
    )
    assert a.examined == b.examined == 1000
    assert len(a.witnesses) == len(b.witnesses)
    for (wa, ma), (wb, mb) in zip(a.witnesses, b.witnesses):
        assert np.array_equal(wa, wb) and ma == mb


def test_random_search_seed_material_forms_agree():
    """An int seed and a one-word entropy list derive the same shards."""
    topo = ToroidalMesh(3, 3)
    shards = ExecutionSettings(shard_size=100)
    a = random_dynamo_search(topo, 3, 3, 500, 7, settings=shards)
    b = random_dynamo_search(topo, 3, 3, 500, [7], settings=shards)
    c = random_dynamo_search(topo, 3, 3, 500, np.random.SeedSequence([7]),
                             settings=shards)
    assert len(a.witnesses) == len(b.witnesses) == len(c.witnesses)
    for (wa, _), (wb, _), (wc, _) in zip(a.witnesses, b.witnesses, c.witnesses):
        assert np.array_equal(wa, wb) and np.array_equal(wa, wc)


def test_random_search_rejects_generator(rng):
    """Seed material is the only input: shards, the witness cache and
    the run ledger all derive from its entropy words."""
    for processes in (0, 2):
        with pytest.raises(TypeError, match="seed material.*Generator"):
            random_dynamo_search(ToroidalMesh(3, 3), 3, 3, 10, rng,
                                 settings=ExecutionSettings(processes=processes))


def test_census_cells_are_independent():
    """Satellite regression: a cell's row no longer depends on which cells
    ran before it (one rng used to be threaded through all cells)."""
    both = below_bound_census(kinds=["mesh", "cordalis"], sizes=[4],
                              random_trials=1500)
    alone = below_bound_census(kinds=["cordalis"], sizes=[4],
                               random_trials=1500)
    assert both[1] == alone[0]


# ----------------------------------------------------------------------
# seed stability: exact outputs pinned for the default derivation
# ----------------------------------------------------------------------
def test_convergence_sweep_seed_stability():
    recs = convergence_sweep(
        square_points("mesh", [4, 5]),
        replicas=64,
        settings=ExecutionSettings(shard_size=16, batch_size=16),
    )
    assert list(recs["converged_frac"]) == [0.375, 0.46875]
    assert list(recs["monochromatic_frac"]) == [0.109375, 0.078125]
    assert list(recs["monotone_frac"]) == [0.078125, 0.0]
    assert recs["mean_rounds"][0] == pytest.approx(83 / 24)
    assert recs["mean_rounds"][1] == pytest.approx(5.4)
    assert list(recs["max_rounds"]) == [5, 9]


def test_census_seed_stability():
    rows = below_bound_census(kinds=["mesh", "cordalis"], sizes=[4],
                              random_trials=1500)
    mesh, cordalis = rows
    assert (mesh.certified_size, mesh.method, mesh.ruled_out_below) == (
        4, "diagonal", 4
    )
    assert (cordalis.certified_size, cordalis.method,
            cordalis.ruled_out_below) == (3, "random", None)


def test_random_search_seed_stability():
    out = random_dynamo_search(ToroidalMesh(3, 3), 3, 3, 1000, [7, 11],
                               settings=ExecutionSettings(shard_size=128))
    assert out.examined == 1000
    assert not out.exhaustive
    assert len(out.witnesses) == 35
