"""Witness database tests: round-trip, caching, corruption, verification, catch-up."""

import dataclasses
import json
import os
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.census as census_mod
import repro.io.witnessdb as witnessdb_mod
from repro.engine import ExecutionSettings
from repro.core.search import exhaustive_dynamo_search, random_dynamo_search
from repro.experiments import below_bound_census
from repro.io import (
    WITNESS_SCHEMA,
    CellRecord,
    WitnessDB,
    WitnessFormatError,
    WitnessQueryIndex,
    WitnessRecord,
    verify_witness,
    witness_from_dict,
    witness_to_dict,
)
from repro.io.witnessdb import SearchRecord
from repro.topology import ToroidalMesh


def _sample_record(**overrides):
    """A small hand-built monotone dynamo record (3x3 mesh diagonal)."""
    fields = dict(
        rule="smp",
        kind="mesh",
        m=3,
        n=3,
        colors=3,
        k=0,
        seed_size=3,
        monotone=True,
        configuration=(0, 1, 1, 2, 0, 1, 2, 2, 0),
        method="manual",
        provenance={"source": "test"},
    )
    fields.update(overrides)
    return WitnessRecord(**fields)


# ----------------------------------------------------------------------
# round-trip
# ----------------------------------------------------------------------
def test_witness_dict_roundtrip_is_identity():
    rec = _sample_record()
    back = witness_from_dict(witness_to_dict(rec))
    assert back == rec
    assert back.configuration == rec.configuration  # bitwise, not just len
    assert back.id == rec.id


def test_witness_save_load_verify_roundtrip(tmp_path):
    path = tmp_path / "w.jsonl"
    db = WitnessDB(path)
    rec = _sample_record()
    assert db.add(rec) is True
    assert db.add(rec) is False  # identical re-add appends nothing
    size_before = path.stat().st_size

    back = WitnessDB(path)
    assert len(back) == 1 and back.corrupt == []
    loaded = back.get(rec.id)
    assert loaded == rec
    assert np.array_equal(loaded.colors_array(), rec.colors_array())
    assert loaded.colors_array().dtype == np.int32
    outcome = verify_witness(loaded)
    assert outcome.ok and outcome.rounds > 0
    assert path.stat().st_size == size_before


def test_witness_id_is_deterministic_and_provenance_free():
    a = _sample_record(provenance={"source": "a"})
    b = _sample_record(provenance={"source": "b"}, verified=True)
    assert a.id == b.id
    assert a.id != _sample_record(colors=4).id


def test_lookup_and_best(tmp_path):
    db = WitnessDB(tmp_path / "w.jsonl")
    db.add(_sample_record())
    bigger = _sample_record(
        configuration=(0, 0, 1, 2, 0, 1, 2, 2, 0), seed_size=4
    )
    db.add(bigger)
    assert len(db.lookup("smp", "mesh", 3, 3, 3)) == 2
    assert db.best("smp", "mesh", 3, 3, 3).seed_size == 3
    assert db.lookup("smp", "mesh", 9, 9, 3) == []
    assert db.witnesses(kind="cordalis") == []


# ----------------------------------------------------------------------
# search-level cache
# ----------------------------------------------------------------------
def test_random_search_cache_hit_bitwise(tmp_path):
    topo = ToroidalMesh(4, 4)
    db = WitnessDB(tmp_path / "w.jsonl")
    kw = dict(monotone_only=True, settings=ExecutionSettings(batch_size=512))
    fresh = random_dynamo_search(topo, 4, 5, 2000, [1, 2], db=db, **kw)
    assert fresh.found_monotone_dynamo and not fresh.cached
    cached = random_dynamo_search(topo, 4, 5, 2000, [1, 2], db=db, **kw)
    assert cached.cached
    assert cached.examined == fresh.examined
    assert len(cached.witnesses) == len(fresh.witnesses)
    for (a, am), (b, bm) in zip(fresh.witnesses, cached.witnesses):
        assert np.array_equal(a, b) and am == bm
    # a different definition (trial count) is a miss, not a wrong hit
    other = random_dynamo_search(topo, 4, 5, 2001, [1, 2], db=db, **kw)
    assert not other.cached


def test_exhaustive_search_cache_restores_flags(tmp_path):
    topo = ToroidalMesh(3, 3)
    db = WitnessDB(tmp_path / "w.jsonl")
    fresh = exhaustive_dynamo_search(topo, 3, 3, monotone_only=True, db=db)
    cached = exhaustive_dynamo_search(topo, 3, 3, monotone_only=True, db=db)
    assert cached.cached and not fresh.cached
    assert cached.exhaustive == fresh.exhaustive
    assert cached.examined == fresh.examined
    assert cached.found_monotone_dynamo


def test_cache_preserves_found_monotone_across_record_cap(tmp_path):
    """Easy searches find far more witnesses than the record cap; a cache
    hit must still agree with the fresh run on found_monotone_dynamo
    (regression: monotone witnesses past the cap used to vanish)."""
    topo = ToroidalMesh(3, 3)
    db = WitnessDB(tmp_path / "w.jsonl")
    kw = dict(monotone_only=False, settings=ExecutionSettings(batch_size=512))
    fresh = random_dynamo_search(topo, 4, 4, 3000, [9, 9], db=db, **kw)
    assert len(fresh.witnesses) > 16  # the cap really truncated
    assert fresh.found_monotone_dynamo
    cached = random_dynamo_search(topo, 4, 4, 3000, [9, 9], db=db, **kw)
    assert cached.cached
    assert cached.found_dynamo == fresh.found_dynamo
    assert cached.found_monotone_dynamo == fresh.found_monotone_dynamo


def test_cache_complete_when_definitions_overlap(tmp_path):
    """Two searches whose witness sets overlap (same shard streams, one a
    trial-superset of the other) must each cache their own full outcome:
    witness rows dedupe by id across definitions, but the per-definition
    search summary keeps every id (regression: the superset search used
    to come back from cache with only its non-shared witnesses)."""
    topo = ToroidalMesh(4, 4)
    db = WitnessDB(tmp_path / "w.jsonl")
    kw = dict(
        monotone_only=True,
        settings=ExecutionSettings(batch_size=500, shard_size=500),
    )
    small = random_dynamo_search(topo, 4, 5, 2000, [7], db=db, **kw)
    fresh = random_dynamo_search(topo, 4, 5, 4000, [7], db=db, **kw)
    assert small.found_dynamo and not fresh.cached
    # shards 0-3 of the superset reproduce the subset's witnesses exactly
    assert len(fresh.witnesses) > len(small.witnesses)
    cached = random_dynamo_search(topo, 4, 5, 4000, [7], db=db, **kw)
    assert cached.cached
    assert len(cached.witnesses) == len(fresh.witnesses)
    for (a, am), (b, bm) in zip(fresh.witnesses, cached.witnesses):
        assert np.array_equal(a, b) and am == bm
    # the subset's own cache entry is intact too
    resmall = random_dynamo_search(topo, 4, 5, 2000, [7], db=db, **kw)
    assert resmall.cached and len(resmall.witnesses) == len(small.witnesses)


# ----------------------------------------------------------------------
# census cache
# ----------------------------------------------------------------------
def test_census_cache_hit_short_circuits_the_search(tmp_path, monkeypatch):
    path = tmp_path / "w.jsonl"
    kw = dict(kinds=["mesh"], sizes=[3, 4], random_trials=1500)
    fresh = below_bound_census(db=path, **kw)
    # (the 3x3 cell's witness is already recorded by the inner exhaustive
    # search, so the census-level add dedupes it: recorded counts new rows)
    s1 = fresh.run_stats
    assert s1.cells == 2 and s1.cache_hits == 0
    assert s1.records_appended >= 1

    def boom(*a, **k):  # any search on the second run is a cache failure
        raise AssertionError("cache miss: the census re-ran a search")

    monkeypatch.setattr(census_mod, "exhaustive_min_dynamo_size", boom)
    monkeypatch.setattr(census_mod, "random_dynamo_search", boom)
    monkeypatch.setattr(census_mod, "diagonal_dynamo", boom)
    cached = below_bound_census(db=path, **kw)
    s2 = cached.run_stats
    assert s2.cache_hits == 2 and s2.records_appended == 0
    assert cached == fresh
    # ... and the db file did not grow on the all-hit run
    assert below_bound_census(db=path, **kw) == fresh


def test_census_rows_identical_with_and_without_db(tmp_path):
    kw = dict(kinds=["mesh"], sizes=[3], random_trials=500)
    assert below_bound_census(db=tmp_path / "w.jsonl", **kw) == below_bound_census(**kw)


def test_census_witnesses_reverify(tmp_path):
    path = tmp_path / "w.jsonl"
    below_bound_census(kinds=["mesh"], sizes=[4], random_trials=1500, db=path)
    db = WitnessDB(path)
    assert len(db) > 0
    for rec in db:
        assert verify_witness(rec).ok, rec.id


# ----------------------------------------------------------------------
# corruption / legacy
# ----------------------------------------------------------------------
def test_corrupted_lines_are_collected_not_fatal(tmp_path):
    path = tmp_path / "w.jsonl"
    good = json.dumps(witness_to_dict(_sample_record()))
    truncated = good[: len(good) // 2]
    wrong_len = json.dumps(
        {**witness_to_dict(_sample_record()), "m": 5}  # 9 colors on 5x3
    )
    path.write_text("\n".join(["not json {", good, truncated, wrong_len]) + "\n")
    db = WitnessDB(path)
    assert len(db) == 1
    assert [lineno for lineno, _ in db.corrupt] == [1, 3, 4]
    with pytest.raises(WitnessFormatError):
        WitnessDB(path, strict=True)


def test_tampered_id_is_corrupt(tmp_path):
    payload = witness_to_dict(_sample_record())
    payload["id"] = "000000000000"
    path = tmp_path / "w.jsonl"
    path.write_text(json.dumps(payload) + "\n")
    db = WitnessDB(path)
    assert len(db) == 0 and len(db.corrupt) == 1
    assert "does not match" in db.corrupt[0][1]


def test_newer_schema_is_rejected():
    payload = witness_to_dict(_sample_record())
    payload["schema"] = WITNESS_SCHEMA + 1
    with pytest.raises(WitnessFormatError, match="newer"):
        witness_from_dict(payload)


def test_legacy_configuration_upgrades(tmp_path):
    # the pre-witness-store save_configuration layout
    legacy = {
        "kind": "mesh",
        "m": 3,
        "n": 3,
        "k": 0,
        "colors": [0, 1, 1, 2, 0, 1, 2, 2, 0],
        "metadata": {"name": "old"},
    }
    path = tmp_path / "w.jsonl"
    path.write_text(json.dumps(legacy) + "\n")
    db = WitnessDB(path)
    assert db.corrupt == [] and db.legacy_upgraded == 1
    (rec,) = list(db)
    assert rec.method == "legacy" and rec.rule == "smp"
    assert rec.seed_size == 3  # recovered from the configuration
    assert rec.colors == 3 and not rec.verified
    assert verify_witness(rec).ok  # and it still replays


def _with_config_entry(payload, field, index, value):
    config = list(payload[field])
    config[index] = value
    return {**payload, field: config}


_LEGACY = {"kind": "mesh", "m": 3, "n": 3, "k": 0,
           "colors": [0, 1, 1, 2, 0, 1, 2, 2, 0]}


@pytest.mark.parametrize(
    "payload",
    [
        # a current record keeps its stored id: int() would map each of
        # these onto the original configuration and pass the id check
        _with_config_entry(witness_to_dict(_sample_record()), "configuration", 1, 1.9),
        _with_config_entry(witness_to_dict(_sample_record()), "configuration", 1, True),
        _with_config_entry(witness_to_dict(_sample_record()), "configuration", 1, "1"),
        {**witness_to_dict(_sample_record()), "m": 3.0},
        {**witness_to_dict(_sample_record()), "n": 3.7},
        {**witness_to_dict(_sample_record()), "k": False},
        {**witness_to_dict(_sample_record()), "colors": 3.0},
        {**witness_to_dict(_sample_record()), "seed_size": 3.0},
        {**witness_to_dict(_sample_record()), "configuration": "011201220"},
        _with_config_entry(_LEGACY, "colors", 1, 1.9),
        _with_config_entry(_LEGACY, "colors", 1, True),
        _with_config_entry(_LEGACY, "colors", 1, [1]),
        {**_LEGACY, "m": 3.7},
        {**_LEGACY, "k": 0.0},
    ],
    ids=[
        "current-color-float", "current-color-bool", "current-color-str",
        "current-m-float", "current-n-float", "current-k-bool",
        "current-colors-float", "current-seed-size-float",
        "current-configuration-str", "legacy-color-float", "legacy-color-bool",
        "legacy-color-list", "legacy-m-float", "legacy-k-float",
    ],
)
def test_non_integer_fields_are_refused_not_truncated(payload):
    with pytest.raises(WitnessFormatError, match="non-negative integer"):
        witness_from_dict(payload)


def test_integer_payloads_still_load():
    record = _sample_record()
    assert witness_from_dict(witness_to_dict(record)) == record
    legacy = witness_from_dict(_LEGACY)
    assert (legacy.colors, legacy.seed_size) == (3, 3)


def test_seed_size_contradiction_is_corrupt():
    payload = witness_to_dict(_sample_record())
    payload["seed_size"] = 5
    with pytest.raises(WitnessFormatError, match="seed_size"):
        witness_from_dict(payload)


# ----------------------------------------------------------------------
# verification stamping
# ----------------------------------------------------------------------
def test_verify_stamps_by_appending(tmp_path):
    path = tmp_path / "w.jsonl"
    db = WitnessDB(path)
    rec = _sample_record()
    db.add(rec)
    lines_before = len(path.read_text().splitlines())
    assert db.verify(rec.id).ok
    assert len(path.read_text().splitlines()) == lines_before + 1
    # the stamp survives a reload, and re-verifying appends nothing
    db2 = WitnessDB(path)
    assert db2.get(rec.id).verified
    assert db2.verify(rec.id).ok
    assert len(path.read_text().splitlines()) == lines_before + 1


def test_verify_fails_non_dynamo_and_downgrades(tmp_path):
    path = tmp_path / "w.jsonl"
    db = WitnessDB(path)
    dud = _sample_record(
        configuration=(0, 1, 1, 1, 1, 1, 2, 2, 2),
        seed_size=1,
        verified=True,  # falsely stamped
    )
    db.add(dud)
    outcome = db.verify(dud.id)
    assert not outcome.ok and "monochromatic" in outcome.reason
    assert not WitnessDB(path).get(dud.id).verified


def test_verified_stamp_survives_rediscovery(tmp_path):
    path = tmp_path / "w.jsonl"
    db = WitnessDB(path)
    rec = _sample_record()
    db.add(rec)
    db.verify(rec.id)
    # the same witness re-recorded by a later search must not lose the stamp
    rediscovered = _sample_record(provenance={"source": "search"})
    assert db.add(rediscovered, replace=True) is True
    assert WitnessDB(path).get(rec.id).verified


# ----------------------------------------------------------------------
# census-cell records
# ----------------------------------------------------------------------
def test_cell_records_roundtrip_and_mismatch(tmp_path):
    path = tmp_path / "w.jsonl"
    db = WitnessDB(path)
    cell = CellRecord(
        type="census-cell",
        key={"kind": "mesh", "n": 4},
        definition={"experiment": "x", "seed": 1},
        row={
            "kind": "mesh", "n": 4, "paper_bound": 6,
            "certified_size": 3, "method": "random", "ruled_out_below": None,
        },
        witness_id="abc",
    )
    assert db.add_cell(cell) is True
    assert db.add_cell(cell) is False
    back = WitnessDB(path)
    definition = {"experiment": "x", "seed": 1}
    assert back.find_cell("census-cell", definition, kind="mesh", n=4) is not None
    assert back.find_cell(
        "census-cell", {"experiment": "x", "seed": 2}, kind="mesh", n=4
    ) is None
    assert back.find_cell(
        "census-cell", definition, kind="cordalis", n=4
    ) is None


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _run_cli(args, capsys):
    from repro.cli import main

    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_census_db_cache_and_witness_tools(tmp_path, capsys):
    dbpath = str(tmp_path / "w.jsonl")
    argv = ["census", "--kinds", "mesh", "--sizes", "3",
            "--trials", "500", "--db", dbpath]
    code, out1, err1 = _run_cli(argv, capsys)
    assert code == 0 and "0/1 cells from cache" in err1
    code, out2, err2 = _run_cli(argv, capsys)
    assert code == 0 and "1/1 cells from cache" in err2
    assert out1 == out2  # stdout bitwise-identical across runs

    code, out, _ = _run_cli(["witness", "list", "--db", dbpath], capsys)
    assert code == 0 and "exhaustive" in out and "witness record(s)" in out
    some_id = out.split("\n")[1].split()[0]

    code, out, _ = _run_cli(["witness", "show", some_id, "--db", dbpath], capsys)
    assert code == 0 and "monotone=True" in out

    code, out, _ = _run_cli(["witness", "verify", "--all", "--db", dbpath], capsys)
    assert code == 0 and "FAIL" not in out

    exported = tmp_path / "conf.json"
    code, out, _ = _run_cli(
        ["witness", "export", some_id, "--db", dbpath, "--out", str(exported)],
        capsys,
    )
    assert code == 0 and exported.exists()
    code, out, _ = _run_cli(
        ["verify", "mesh", "3", "3", "--load", str(exported),
         "--target-color", "0"], capsys
    )
    assert code == 0 and "is_dynamo=True" in out


def test_cli_witness_unknown_id(tmp_path, capsys):
    dbpath = str(tmp_path / "w.jsonl")
    WitnessDB(dbpath).add(_sample_record())
    code, _, err = _run_cli(["witness", "show", "zzzz", "--db", dbpath], capsys)
    assert code == 2 and "no witness" in err


def test_cli_search_records_and_caches(tmp_path, capsys):
    dbpath = str(tmp_path / "w.jsonl")
    argv = ["search", "mesh", "3", "3", "--seed-size", "3", "--colors", "3",
            "--exhaustive", "--monotone-only", "--db", dbpath]
    code, out, _ = _run_cli(argv, capsys)
    assert code == 0 and "witness(es)" in out and "served" not in out
    code, out, _ = _run_cli(argv, capsys)
    assert code == 0 and "served from witness db" in out


# ----------------------------------------------------------------------
# scale-free-cell / async-summary record kinds
# ----------------------------------------------------------------------
def test_scale_free_cell_roundtrip_idempotence_and_probes(tmp_path):
    path = tmp_path / "w.jsonl"
    db = WitnessDB(path)
    rec = CellRecord(
        type="scale-free-cell",
        key={"strategy": "hubs", "seed_fraction": 0.05},
        definition={"experiment": "scale-free-takeover", "seed": 1},
        row={"strategy": "hubs", "seed_fraction": 0.05, "takeover_rate": 0.5},
    )
    assert db.add_cell(rec) is True
    assert db.add_cell(rec) is False  # idempotent
    back = WitnessDB(path)
    definition = {"experiment": "scale-free-takeover", "seed": 1}
    hit = back.find_cell(
        "scale-free-cell", definition, strategy="hubs", seed_fraction=0.05
    )
    assert hit is not None and hit.row == rec.row and hit.id == rec.id
    assert back.find_cell(
        "scale-free-cell", {"experiment": "scale-free-takeover", "seed": 2},
        strategy="hubs", seed_fraction=0.05,
    ) is None
    assert back.find_cell(
        "scale-free-cell", definition, strategy="random", seed_fraction=0.05
    ) is None
    assert len(back.scale_free_cells) == 1
    # the types keep separate views: a scale-free cell is no census cell
    assert back.cells == [] and back.async_summaries == []


def test_async_summary_roundtrip_idempotence_and_probes(tmp_path):
    path = tmp_path / "w.jsonl"
    db = WitnessDB(path)
    rec = CellRecord(
        type="async-summary",
        key={"label": "theorem2_mesh"},
        definition={"experiment": "async-robustness", "root": 7, "trials": 5},
        row={"trials": 5, "takeover_rate": 1.0},
    )
    assert db.add_cell(rec) is True
    assert db.add_cell(rec) is False
    back = WitnessDB(path)
    hit = back.find_cell(
        "async-summary",
        {"experiment": "async-robustness", "root": 7, "trials": 5},
        label="theorem2_mesh",
    )
    assert hit is not None and hit.row == rec.row
    assert back.find_cell("async-summary", rec.definition, label="other") is None
    assert back.find_cell(
        "async-summary", {"root": 8}, label="theorem2_mesh"
    ) is None
    assert len(back.async_summaries) == 1


def test_new_record_kind_ids_are_seed_stable():
    """Content-derived ids pin the cache-key derivation: a change to the
    canonicalization or tag layout shows up as an id drift here."""
    cell = CellRecord(
        type="scale-free-cell",
        key={"strategy": "hubs", "seed_fraction": 0.05},
        definition={"experiment": "scale-free-takeover", "seed": 1},
        row={},
    )
    assert cell.id == "1220f5146a57"
    # key-order-insensitive (canonical JSON) and fraction-exact
    reordered = CellRecord(
        type="scale-free-cell",
        key={"seed_fraction": 0.05, "strategy": "hubs"},
        definition={"seed": 1, "experiment": "scale-free-takeover"},
        row={"extra": "row content is not part of the key"},
    )
    assert reordered.id == cell.id
    summary = CellRecord(
        type="async-summary",
        key={"label": "theorem2_mesh"},
        definition={"experiment": "async-robustness", "root": 7},
        row={},
    )
    assert summary.id == "1254bc6d9790"
    census = CellRecord(
        type="census-cell",
        key={"kind": "mesh", "n": 4},
        definition={"experiment": "x", "seed": 1},
        row={},
    )
    assert census.id == "79a84baeea4e"
    # key fields are coerced before hashing: n=4.0 is n=4
    coerced = dataclasses.replace(census, key={"kind": "mesh", "n": 4.0}, id="")
    assert coerced.id == census.id


_TAMPER_CASES = {
    "census-cell": ({"kind": "mesh", "n": 4}, "kind", "cordalis"),
    "scale-free-cell": (
        {"strategy": "hubs", "seed_fraction": 0.05}, "strategy", "random"
    ),
    "async-summary": ({"label": "theorem2_mesh"}, "label", "other"),
}


@pytest.mark.parametrize("cell_type", sorted(_TAMPER_CASES))
def test_new_record_kinds_reject_tampering(tmp_path, cell_type):
    key, field, forged = _TAMPER_CASES[cell_type]
    path = tmp_path / "w.jsonl"
    WitnessDB(path).add_cell(
        CellRecord(type=cell_type, key=key, definition={"seed": 1}, row={})
    )
    line = json.loads(path.read_text())
    line[field] = forged  # id no longer matches the content
    path.write_text(json.dumps(line) + "\n")
    back = WitnessDB(path)
    assert len(back.cells + back.scale_free_cells + back.async_summaries) == 0
    assert back.corrupt and "does not match" in back.corrupt[0][1]


def test_cli_scale_free_census_served_bitwise_from_cache(tmp_path, capsys):
    dbpath = str(tmp_path / "w.jsonl")
    argv = ["scale-free", "--n", "60", "--graphs", "2", "--replicas", "4",
            "--fractions", "0.05", "--strategies", "hubs", "--db", dbpath]
    code, out1, err1 = _run_cli(argv, capsys)
    assert code == 0 and "0/1 cells from cache, 1 recorded" in err1
    code, out2, err2 = _run_cli(argv, capsys)
    assert code == 0 and "1/1 cells from cache, 0 recorded" in err2
    assert out1 == out2  # stdout bitwise-identical across runs


def test_cli_async_summary_cached(tmp_path, capsys):
    dbpath = str(tmp_path / "w.jsonl")
    argv = ["async", "mesh", "5", "5", "--trials", "5", "--seed", "3",
            "--db", dbpath]
    code, out1, err1 = _run_cli(argv, capsys)
    assert code == 0 and "summary recorded" in err1
    code, out2, err2 = _run_cli(argv, capsys)
    assert code == 0 and "served from cache" in err2
    assert out1 == out2
    # the served summary equals a fresh computation (no db)
    code, out3, _ = _run_cli(
        ["async", "mesh", "5", "5", "--trials", "5", "--seed", "3"], capsys)
    assert code == 0 and out3 == out1


# ----------------------------------------------------------------------
# catch-up on appended lines == a fresh load of the file
# ----------------------------------------------------------------------
def _numbered_record(i):
    """A distinct (for ``i`` below 3**8) 3x3 witness record."""
    config = [0] + [(i // 3**j) % 3 for j in range(8)]
    return _sample_record(
        configuration=config,
        seed_size=config.count(0),
        provenance={"source": f"r{i}"},
    )


def _line(payload):
    return (json.dumps(payload, sort_keys=True) + "\n").encode()


def _raw_append(path, data):
    with open(path, "ab") as fh:
        fh.write(data)


def _state(db):
    """Everything a load derives from the file, plus the byte geometry
    the next catch-up and the next torn-tail heal start from."""
    store = db._store
    return {
        "ids": [rec.id for rec in db],
        "witnesses": [witness_to_dict(rec) for rec in db],
        "by_key": {rec.key: [r.id for r in db.lookup(*rec.key)] for rec in db},
        "cells": db.cells,
        "searches": db.searches,
        "scale_free_cells": db.scale_free_cells,
        "async_summaries": db.async_summaries,
        "corrupt": db.corrupt,
        "legacy_upgraded": db.legacy_upgraded,
        "torn_tail": db.torn_tail,
        "geometry": (
            store._good_end, store._newlines, store._needs_newline,
            store._last_corrupt,
        ),
    }


def _catch_up_or_reload(db, path):
    """What the query index does: catch up, or reopen when told to."""
    caught = db.catch_up()
    return caught, (db if caught else WitnessDB(path))


_LEGACY_LINE = _line({
    "kind": "mesh", "m": 3, "n": 3, "k": 0,
    "colors": [0, 1, 1, 2, 0, 1, 2, 2, 0], "metadata": {"name": "old"},
})


def test_catch_up_matches_full_load_scripted(tmp_path):
    path = tmp_path / "w.jsonl"
    dynamo = _sample_record()  # replays to a dynamo: verify stamps it
    seeded = WitnessDB(path)
    seeded.add(dynamo)
    seeded.add(_numbered_record(0))
    reader = WitnessDB(path)
    fresh_line = _line(witness_to_dict(_numbered_record(4)))

    def same_size_rewrite():
        raw = bytearray(path.read_bytes())
        at = raw.index(b'"r0"') + 2
        raw[at] = ord("9")
        path.write_bytes(bytes(raw))

    def recreate():
        path.unlink()
        WitnessDB(path).add(_numbered_record(7))

    steps = [
        ("new witness", lambda: WitnessDB(path).add(_numbered_record(1)), True),
        ("verify stamp", lambda: WitnessDB(path).verify(dynamo.id), True),
        ("census cell", lambda: WitnessDB(path).add_cell(CellRecord(
            type="census-cell", key={"kind": "mesh", "n": 4},
            definition={"seed": 1}, row={"kind": "mesh", "n": 4},
            witness_id=dynamo.id,
        )), True),
        ("search", lambda: WitnessDB(path).add_search(SearchRecord(
            definition={"mode": "random", "seed": 1},
            witness_ids=[dynamo.id], examined=9, witnesses_found=1,
        )), True),
        ("interior corrupt line and a legacy line", lambda: _raw_append(
            path, b"not json {\n" + _LEGACY_LINE
        ), True),
        ("torn tail", lambda: _raw_append(path, fresh_line[:20]), True),
        ("healing append", lambda: WitnessDB(path).add(_numbered_record(2)), True),
        ("final line without newline", lambda: _raw_append(
            path, fresh_line[:-1]
        ), True),
        ("append through the store", lambda: WitnessDB(path).add(
            _numbered_record(3)
        ), True),
        ("another final line without newline", lambda: _raw_append(
            path, _line(witness_to_dict(_numbered_record(5)))[:-1]
        ), True),
        ("raw bytes glued onto it", lambda: _raw_append(path, b'{"x": 1}'), False),
        ("truncate", lambda: os.truncate(path, path.stat().st_size // 2), False),
        ("same-size rewrite", same_size_rewrite, False),
        ("delete and recreate", recreate, False),
        ("corrupt line before a torn tail", lambda: _raw_append(
            path, b"not json {\n" + fresh_line[:20]
        ), True),
        # a full load now calls the corrupt line the torn tail
        ("torn tail cut away", lambda: _drop_partial_line(path), False),
    ]
    for name, mutate, expect_caught in steps:
        mutate()
        caught, reader = _catch_up_or_reload(reader, path)
        assert caught is expect_caught, name
        assert _state(reader) == _state(WitnessDB(path)), name
        if name == "verify stamp":
            # the superseding line keeps the record's first position
            assert [rec.id for rec in reader][0] == dynamo.id
            assert reader.get(dynamo.id).verified
        if name == "interior corrupt line and a legacy line":
            assert reader.corrupt and reader.legacy_upgraded == 1
        if name == "torn tail":
            assert reader.torn_tail is not None


def _drop_partial_line(path):
    raw = path.read_bytes()
    os.truncate(path, raw.rfind(b"\n") + 1)


def _mutate(path, op, x):
    """One random change to the file; fresh writers model other processes."""
    size = path.stat().st_size if path.exists() else 0
    if op == "add":
        WitnessDB(path).add(_numbered_record(x % 3**8))
    elif op == "stamp":
        writer = WitnessDB(path)
        records = list(writer)
        if records:
            rec = records[x % len(records)]
            writer.add(dataclasses.replace(rec, verified=True), replace=True)
    elif op == "cell":
        WitnessDB(path).add_cell(CellRecord(
            type="census-cell", key={"kind": "mesh", "n": 3 + x % 3},
            definition={"seed": x % 5}, row={"x": x},
        ))
    elif op == "search":
        WitnessDB(path).add_search(SearchRecord(
            definition={"seed": x % 5}, examined=x,
        ))
    elif op == "corrupt":
        # followed by a whole record, or by a torn one (odd ``x``)
        line = _line(witness_to_dict(_numbered_record(x % 3**8)))
        _raw_append(path, b"not json {\n" + line[: len(line) // (1 + x % 2)])
    elif op == "legacy":
        _raw_append(path, _LEGACY_LINE)
    elif op == "torn":
        line = _line(witness_to_dict(_numbered_record(x % 3**8)))
        _raw_append(path, line[: 1 + x % (len(line) - 2)])
    elif op == "bare":
        _raw_append(path, _line(witness_to_dict(_numbered_record(x % 3**8)))[:-1])
    elif op == "glue":
        _raw_append(path, b'{"x": 1}')
    elif op == "blank":
        _raw_append(path, b"\n  \n")
    elif op == "truncate" and size:
        os.truncate(path, size - 1 - x % size)
    elif op == "untear" and size:
        _drop_partial_line(path)
    elif op == "flip" and size:
        raw = bytearray(path.read_bytes())
        raw[x % size] ^= 1
        path.write_bytes(bytes(raw))
    elif op == "recreate" and path.exists():
        path.unlink()
        _raw_append(path, _line(witness_to_dict(_numbered_record(x % 3**8))))


_WRITER_OPS = ("add", "stamp", "cell", "search")


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.tuples(
        st.sampled_from(_WRITER_OPS + (
            "corrupt", "legacy", "torn", "bare", "glue", "blank",
            "truncate", "untear", "flip", "recreate",
        )),
        st.integers(0, 10**6),
    ),
    min_size=1,
    max_size=12,
))
def test_catch_up_matches_full_load_property(ops):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.jsonl"
        WitnessDB(path).add(_sample_record())
        reader = WitnessDB(path)
        for op, x in ops:
            _mutate(path, op, x)
            caught, reader = _catch_up_or_reload(reader, path)
            if op in _WRITER_OPS:
                # another process's store appends exactly past the last
                # good line end, so a reader never needs a full reload
                assert caught, op
            assert _state(reader) == _state(WitnessDB(path)), op


def test_query_index_catch_up_builds_only_the_appended_record(
    tmp_path, monkeypatch
):
    path = tmp_path / "w.jsonl"
    writer = WitnessDB(path)
    for i in range(5):
        writer.add(_numbered_record(i))
    index = WitnessQueryIndex(path)
    assert index.witnesses().total == 5
    built = []
    real = witnessdb_mod.witness_from_dict

    def counted(payload):
        built.append(payload["id"])
        return real(payload)

    monkeypatch.setattr(witnessdb_mod, "witness_from_dict", counted)
    writer.add(_numbered_record(5))
    page = index.witnesses()
    assert page.total == 6
    assert built == [_numbered_record(5).id]


# ----------------------------------------------------------------------
# the shipped corpus
# ----------------------------------------------------------------------
SHIPPED = Path(__file__).resolve().parents[1] / "results" / "witnesses.jsonl"

#: what the store appends for each record type
_ENCODERS = {
    "witness": witness_to_dict,
    "search": witnessdb_mod._search_to_dict,
    "census-cell": witnessdb_mod._cell_to_dict,
    "scale-free-cell": witnessdb_mod._cell_to_dict,
    "async-summary": witnessdb_mod._cell_to_dict,
}


def _loaded(db, record_type, record_id):
    if record_type == "witness":
        return db.get(record_id)
    if record_type == "search":
        return {r.id: r for r in db.searches}[record_id]
    cells = db.cells + db.scale_free_cells + db.async_summaries
    return {c.id: c for c in cells}[record_id]


def test_shipped_corpus_reencodes_byte_for_byte(tmp_path):
    """Every shipped line is exactly what the store appends for the
    record it loads to — witness, search and all three cell types,
    superseded lines included — so no stored id or byte drifts."""
    path = tmp_path / "w.jsonl"
    path.touch()
    db = WitnessDB(path, strict=True)
    types = Counter()
    for line in SHIPPED.read_bytes().splitlines(keepends=True):
        _raw_append(path, line)
        assert db.catch_up()
        payload = json.loads(line)
        types[payload["type"]] += 1
        record = _loaded(db, payload["type"], payload["id"])
        assert _line(_ENCODERS[payload["type"]](record)) == line
    # 87 witnesses, each once as found and once verified-stamped
    assert types == {
        "witness": 174, "census-cell": 12, "scale-free-cell": 9,
        "async-summary": 1, "search": 7,
    }
    assert len(db) == 87
