"""Update-order robustness tests."""

import numpy as np

from helpers import reference_async_trials

from repro.core import build_minimum_dynamo
from repro.engine import RunStats
from repro.engine.schedulers import AsyncSchedule
from repro.ext import async_robustness, order_sensitivity
from repro.ext.asynchrony import _run_trials, _summarize, derive_schedule_root


def test_constructions_robust_to_random_order(torus_kind):
    con = build_minimum_dynamo(torus_kind, 5, 5)
    out = async_robustness(con, trials=10, rng=np.random.default_rng(3))
    assert out.takeover_rate == 1.0
    assert out.monotone_rate == 1.0
    assert out.min_sweeps >= 1


def test_diagonal_dynamo_fragile_under_asynchrony():
    """The below-bound diagonal witnesses are synchronous-only: their 2-2
    tie protection breaks when one neighbor updates before the other, so
    random sequential schedules destroy the takeover (and usually the
    monotonicity) — unlike the paper's k-block/rainbow constructions."""
    from repro.core import diagonal_dynamo

    con = diagonal_dynamo(5)
    out = async_robustness(con, trials=15, rng=np.random.default_rng(4))
    assert out.takeover_rate < 0.5
    assert out.monotone_rate < 1.0


def test_floor_witness_also_fragile():
    from repro.core import floor_dynamo

    con = floor_dynamo(4)
    out = async_robustness(con, trials=15, rng=np.random.default_rng(6))
    assert out.takeover_rate < 1.0


def test_order_sensitivity_distribution():
    con = build_minimum_dynamo("cordalis", 5, 5)
    sweeps = order_sensitivity(con, trials=25, rng=np.random.default_rng(9))
    assert sweeps.shape == (25,)
    assert sweeps.min() >= 1
    # the scheduler controls the clock within a bounded band
    assert sweeps.max() <= 2 * 8 + 4  # ~2x the synchronous rounds


def test_sweep_cap_respected():
    con = build_minimum_dynamo("mesh", 6, 6)
    out = async_robustness(
        con, trials=3, rng=np.random.default_rng(1), max_sweeps=1
    )
    assert out.takeover_rate == 0.0
    assert out.max_sweeps == 1


# ----------------------------------------------------------------------
# the batched rewiring: equivalence to the scalar oracle, seeding, and
# db caching
# ----------------------------------------------------------------------
def _scalar_summary(con, trials, root):
    schedule = AsyncSchedule.derive(root, trials)
    return _summarize(reference_async_trials(con, schedule), trials)


def test_engines_bitwise_identical(torus_kind):
    con = build_minimum_dynamo(torus_kind, 5, 5)
    batch = async_robustness(con, trials=8, seed=0xFACE)
    assert batch == _scalar_summary(con, 8, 0xFACE)
    with_rng = async_robustness(con, trials=8, rng=np.random.default_rng(2))
    root = derive_schedule_root(None, np.random.default_rng(2), 0)
    assert with_rng == _scalar_summary(con, 8, root)
    # not just the summaries: every trial's final state and clock
    schedule = AsyncSchedule.derive(0xFACE, 8)
    got = _run_trials(con, schedule, max_sweeps=None)
    want = reference_async_trials(con, schedule)
    for name in ("final", "rounds", "converged", "monotone"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_explicit_seed_reproducible_and_independent_of_rng():
    con = build_minimum_dynamo("mesh", 5, 5)
    a = async_robustness(con, trials=6, seed=77)
    b = async_robustness(con, trials=6, seed=77, rng=np.random.default_rng(5))
    assert a == b  # explicit seed wins over rng
    assert a == async_robustness(con, trials=6, seed=77)


def test_order_sensitivity_seeded_and_engine_invariant():
    con = build_minimum_dynamo("cordalis", 5, 5)
    a = order_sensitivity(con, trials=12, seed=3)
    b = reference_async_trials(con, AsyncSchedule.derive(3, 12)).rounds
    assert np.array_equal(a, b.astype(np.int64))
    assert np.array_equal(a, order_sensitivity(con, trials=12, seed=3))


def test_db_caches_summary(tmp_path):
    from repro.io import WitnessDB

    path = tmp_path / "w.jsonl"
    con = build_minimum_dynamo("mesh", 5, 5)
    first = async_robustness(con, trials=5, seed=9, db=WitnessDB(path))
    assert first.run_stats == RunStats(cells=1, records_appended=1)
    second = async_robustness(con, trials=5, seed=9, db=WitnessDB(path))
    assert second.run_stats == RunStats(cells=1, cache_hits=1)
    assert first == second
    # trial count is part of the definition: no false hit
    third = async_robustness(con, trials=6, seed=9, db=WitnessDB(path))
    assert third.run_stats.cache_hits == 0
    # a different configuration (digest) misses too
    other = async_robustness(build_minimum_dynamo("mesh", 7, 7), trials=5,
                             seed=9, db=WitnessDB(path))
    assert other.run_stats.cache_hits == 0
