"""Parallel sweep driver tests."""

import numpy as np
import pytest

from repro.engine import ExecutionSettings
from repro.experiments import (
    convergence_sweep,
    rect_points,
    square_points,
    sweep_rounds,
)

from helpers import per_row_oracle


def test_point_helpers():
    assert square_points("mesh", [3, 5]) == [("mesh", 3, 3), ("mesh", 5, 5)]
    assert rect_points("cordalis", [3], [4, 5]) == [
        ("cordalis", 3, 4),
        ("cordalis", 3, 5),
    ]


def test_sweep_inline_records():
    records = sweep_rounds(square_points("mesh", [4, 6]), processes=0)
    assert records.shape == (2,)
    assert records["is_dynamo"].all()
    assert records["monotone"].all()
    assert list(records["m"]) == [4, 6]
    assert np.array_equal(records["seed_size"], records["lower_bound"])
    # empirical predictions agree with the measurement where defined
    defined = records["empirical_rounds"] >= 0
    assert np.array_equal(
        records["rounds"][defined], records["empirical_rounds"][defined]
    )


def test_sweep_parallel_matches_inline():
    points = square_points("cordalis", [3, 4, 5]) + square_points(
        "serpentinus", [4, 5]
    )
    inline = sweep_rounds(points, processes=0)
    parallel = sweep_rounds(points, processes=2)
    assert np.array_equal(inline, parallel)


def test_convergence_sweep_records():
    recs = convergence_sweep(
        square_points("mesh", [4]), replicas=32,
        settings=ExecutionSettings(batch_size=8, shard_size=8),
    )
    (r,) = recs
    assert r["replicas"] == 32
    assert 0.0 <= r["converged_frac"] <= 1.0
    assert r["monochromatic_frac"] <= r["converged_frac"]
    assert r["rule"] == "smp"


def test_convergence_sweep_validates_early():
    with pytest.raises(ValueError):
        convergence_sweep(square_points("mesh", [4]), replicas=0)
    with pytest.raises(ValueError):
        convergence_sweep(square_points("mesh", [4]), "no-such-rule", replicas=4)
    with pytest.raises(ValueError, match="processes"):
        convergence_sweep(square_points("mesh", [4]), replicas=4,
                          settings=ExecutionSettings(processes=-3))


def test_sweep_mixed_kinds():
    records = sweep_rounds(
        [("mesh", 5, 5), ("cordalis", 5, 5), ("serpentinus", 5, 5)], processes=0
    )
    assert list(records["kind"]) == ["mesh", "cordalis", "serpentinus"]
    assert list(records["lower_bound"]) == [8, 6, 6]
    assert list(records["rounds"]) == [4, 8, 8]


def _first_repeat_run_batch(topo, batch, rule, *, max_rounds=None, target_color=None):
    """``run_batch`` rebuilt from per-row ``run_synchronous`` with its
    first-repeat cycle detection: each cycling row stops at its first
    repeated state."""
    from repro.engine.batch import BatchRunResult

    rows = per_row_oracle(
        topo, batch, rule, max_rounds=max_rounds, target_color=target_color,
        detect_cycles=True,
    )
    return BatchRunResult(
        final=np.stack([r.final for r in rows]),
        rounds=np.array([r.rounds for r in rows], dtype=np.int32),
        converged=np.array([r.converged for r in rows]),
        fixed_point_round=np.array(
            [-1 if r.fixed_point_round is None else r.fixed_point_round
             for r in rows],
            dtype=np.int32,
        ),
        monotone=np.array([bool(r.monotone) for r in rows]),
        target_color=target_color,
    )


@pytest.mark.parametrize("kind", ["mesh", "cordalis", "serpentinus"])
@pytest.mark.parametrize("rule", ["smp", "plurality", "majority"])
def test_convergence_sweep_records_match_first_repeat(monkeypatch, rule, kind):
    """Brent retirement leaves the sweep records as they are when every
    row stops at its first repeated state: a record reads only whether
    rows converged, became monochromatic and stayed monotone, and the
    rounds of converged rows."""
    from repro.engine import batch as batch_mod

    points = [(kind, 4, 5)]
    settings = ExecutionSettings(batch_size=40, shard_size=40)
    got = convergence_sweep(points, rule, replicas=80, settings=settings)
    monkeypatch.setattr(batch_mod, "run_batch", _first_repeat_run_batch)
    want = convergence_sweep(points, rule, replicas=80, settings=settings)
    assert got.tobytes() == want.tobytes()
    # the pin is meaningful: some rows cycle
    assert got["converged_frac"][0] < 1.0
