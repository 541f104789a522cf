"""ExecutionSettings contract: one settings object, read directly.

Every sharded driver takes its execution configuration from a frozen
:class:`repro.engine.ExecutionSettings` passed as ``settings=``; an
unset field means the driver's own default.  Pinned here: the object's
value semantics, default resolution (an unset ``batch_size`` is
bitwise the literal default the CLI used to pass), the rejection of
inapplicable definitional knobs, and cooperative cancellation through
``settings.cancel``.
"""

import dataclasses

import pytest

from repro.core.search import (
    exhaustive_dynamo_search,
    exhaustive_min_dynamo_size,
    random_dynamo_search,
)
from repro.engine import ExecutionSettings, RunCancelled, RunStats, run_sharded
from repro.experiments.census import below_bound_census
from repro.experiments.sweeps import convergence_sweep
from repro.io.witnessdb import WitnessDB
from repro.topology import ToroidalMesh


def outcome_key(out):
    """Everything observable about a SearchOutcome, hashable-ish."""
    return (
        out.seed_size,
        out.examined,
        out.exhaustive,
        out.cached,
        [(cfg.tobytes(), mono) for cfg, mono in out.witnesses],
    )


class TestSettingsObject:
    def test_frozen_and_comparable(self):
        s = ExecutionSettings(processes=2, batch_size=64)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.processes = 4
        assert s == ExecutionSettings(processes=2, batch_size=64)
        # cancel is execution wiring, not identity
        assert s == dataclasses.replace(s, cancel=lambda: False)

    def test_reject_inapplicable_definitional_knobs(self):
        topo = ToroidalMesh(3, 3)
        with pytest.raises(ValueError, match="shard_size"):
            exhaustive_dynamo_search(
                topo, 1, 3, settings=ExecutionSettings(shard_size=8)
            )

    def test_run_stats_shape(self):
        rs = RunStats(cells=2, cache_hits=1, records_appended=3)
        assert rs.as_dict() == {
            "cells": 2, "cache_hits": 1, "records_appended": 3
        }


class TestRunShardedSettings:
    def test_cancel_raises_run_cancelled(self):
        calls = []

        def work(shard):
            calls.append(shard)
            return shard

        with pytest.raises(RunCancelled):
            run_sharded(
                work,
                list(range(8)),
                processes=0,
                cancel=lambda: len(calls) >= 2,
            )
        assert len(calls) == 2  # committed work stopped at the boundary


class TestDriverParity:
    """An unset settings field is bitwise the driver default the CLI used
    to spell out (8192 census/exhaustive, 4096 random search, 256 sweep):
    same results and the same witness-db bytes, hence the same cache keys.
    """

    def test_random_search(self, tmp_path):
        topo = ToroidalMesh(3, 3)

        def run(name, settings):
            db = WitnessDB(tmp_path / name)
            out = random_dynamo_search(
                topo, 3, 3, 300, 11, db=db, settings=settings
            )
            return out, (tmp_path / name).read_bytes()

        unset, unset_db = run("unset.jsonl", ExecutionSettings())
        explicit, explicit_db = run(
            "explicit.jsonl", ExecutionSettings(batch_size=4096)
        )
        assert unset.found_dynamo
        assert outcome_key(unset) == outcome_key(explicit)
        assert unset_db == explicit_db

    def test_exhaustive_search(self, tmp_path):
        topo = ToroidalMesh(3, 3)

        def run(name, settings):
            db = WitnessDB(tmp_path / name)
            out = exhaustive_dynamo_search(topo, 3, 3, db=db, settings=settings)
            return out, (tmp_path / name).read_bytes()

        unset, unset_db = run("unset.jsonl", ExecutionSettings())
        explicit, explicit_db = run(
            "explicit.jsonl", ExecutionSettings(batch_size=8192)
        )
        assert unset.found_dynamo
        assert outcome_key(unset) == outcome_key(explicit)
        assert unset_db == explicit_db

    def test_exhaustive_min_size(self):
        topo = ToroidalMesh(3, 3)
        unset = exhaustive_min_dynamo_size(topo, 3, max_seed_size=2)
        explicit = exhaustive_min_dynamo_size(
            topo, 3, max_seed_size=2,
            settings=ExecutionSettings(batch_size=8192),
        )
        assert unset[0] == explicit[0]
        assert [outcome_key(o) for o in unset[1]] == [
            outcome_key(o) for o in explicit[1]
        ]

    def test_census(self, tmp_path):
        def run(db_path, settings):
            db = WitnessDB(db_path)
            rows = below_bound_census(
                kinds=["mesh"], sizes=[3], random_trials=60, db=db,
                settings=settings,
            )
            return rows, db_path.read_bytes()

        rows_unset, bytes_unset = run(
            tmp_path / "unset.jsonl", ExecutionSettings()
        )
        rows_explicit, bytes_explicit = run(
            tmp_path / "explicit.jsonl", ExecutionSettings(batch_size=8192)
        )
        assert rows_unset == rows_explicit
        assert bytes_unset == bytes_explicit
        assert rows_unset.run_stats == rows_explicit.run_stats
        assert rows_unset.run_stats.cells == 1
        assert rows_unset.run_stats.cache_hits == 0

    def test_convergence_sweep(self):
        points = [("mesh", 4, 4)]
        unset = convergence_sweep(points, "smp", replicas=600, seed=5)
        explicit = convergence_sweep(
            points, "smp", replicas=600, seed=5,
            settings=ExecutionSettings(batch_size=256),
        )
        assert unset.tobytes() == explicit.tobytes()
        assert unset.shape == explicit.shape

    def test_scale_free(self):
        pytest.importorskip("networkx")
        from repro.ext.scale_free import scale_free_takeover_census

        common = dict(
            n=30, m_attach=2, num_colors=2, strategies=("random",),
            seed_fractions=(0.2,), graphs=2, replicas=4, max_rounds=40,
            seed=9,
        )
        inline = scale_free_takeover_census(**common)
        pooled = scale_free_takeover_census(
            settings=ExecutionSettings(processes=2), **common
        )
        assert [c.as_row() for c in inline.cells] == [
            c.as_row() for c in pooled.cells
        ]
        assert pooled.run_stats == RunStats(cells=1)

    def test_scale_free_rejects_geometry_knobs(self):
        pytest.importorskip("networkx")
        from repro.ext.scale_free import scale_free_takeover_census

        with pytest.raises(ValueError, match="batch_size"):
            scale_free_takeover_census(
                n=20, graphs=1, replicas=2,
                settings=ExecutionSettings(batch_size=64),
            )


class TestCancellationPaths:
    def test_census_cancel_stops_the_run(self):
        with pytest.raises(RunCancelled):
            below_bound_census(
                kinds=["mesh", "cordalis"],
                sizes=[3],
                random_trials=40,
                settings=ExecutionSettings(cancel=lambda: True),
            )

    def test_exhaustive_cancel_between_batches(self):
        topo = ToroidalMesh(3, 3)
        with pytest.raises(RunCancelled):
            exhaustive_dynamo_search(
                topo, 2, 3,
                settings=ExecutionSettings(
                    batch_size=16, cancel=lambda: True
                ),
            )

