"""Telemetry subsystem (repro.obs): unit, determinism, and parity tests.

Three layers, mirroring the contract in README "Telemetry":

* unit — sessions produce well-formed schema-versioned streams (meta
  line first, spans/counters/events after, spool directory cleaned up),
  levels gate correctly, and the no-session path is a strict no-op;
* determinism — :func:`repro.obs.merge_spool_lines` is invariant under
  arrival order (worker spools merge by stable keys, never by time);
* parity — the headline invariant: a census run with ``--telemetry``
  produces byte-identical stdout, witness database, and run ledger to
  one without, at 1 and at 4 processes, and the report over the
  captured stream shows per-shard timings, the plan-cache hit rate, and
  retry counts.
"""

import json

import pytest

from repro import obs
from repro.obs import (
    DEFAULT_LEVEL,
    LEVELS,
    TELEMETRY_SCHEMA,
    merge_spool_lines,
    stable_fields,
    validate_level,
)
from repro.obs.report import (
    load_stream,
    render_summary,
    summarize,
    summarize_stream,
)


def _run_cli(args, capsys):
    from repro.cli import main

    code = main([str(a) for a in args])
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# unit: levels, sessions, stream shape
# ---------------------------------------------------------------------------


class TestLevels:
    def test_validate_level_accepts_all_tiers(self):
        for level in LEVELS:
            assert validate_level(level) == level
        assert DEFAULT_LEVEL in LEVELS

    def test_validate_level_rejects_unknown(self):
        with pytest.raises(ValueError, match="telemetry level"):
            validate_level("verbose")

    def test_disabled_by_default(self):
        assert obs.active_session() is None
        assert not obs.enabled("basic")

    def test_level_gating(self, tmp_path):
        path = tmp_path / "t.tel"
        with obs.telemetry_session(path, level="basic", command="unit"):
            assert obs.enabled("basic")
            assert not obs.enabled("detailed")
            assert not obs.enabled("debug")
            obs.emit("kept", level="basic")
            obs.emit("cut", level="debug")
        names = [r["name"] for r in load_stream(path) if r["kind"] == "event"]
        assert "kept" in names and "cut" not in names


class TestSessionStream:
    def test_stream_shape_and_cleanup(self, tmp_path):
        path = tmp_path / "t.tel"
        with obs.telemetry_session(
            path, level="debug", command="unit", context={"processes": 4}
        ):
            obs.count("plan-cache.hit", 3)
            with obs.span("phase", key="p1", level="basic"):
                pass
            obs.emit("shard-dispatch", key=0, level="debug")
        records = load_stream(path)
        meta = records[0]
        assert meta["kind"] == "meta"
        assert meta["schema"] == TELEMETRY_SCHEMA
        assert meta["command"] == "unit"
        assert meta["level"] == "debug"
        assert meta["status"] == "ok"
        assert meta["context"] == {"processes": 4}
        assert meta["events"] == len(records) - 1
        assert meta["dropped_lines"] == 0
        kinds = {r["kind"] for r in records[1:]}
        assert kinds == {"span", "event", "counter"}
        run_spans = [r for r in records if r.get("name") == "run"]
        assert len(run_spans) == 1 and run_spans[0]["perf_s"] >= 0.0
        counter = next(r for r in records if r["kind"] == "counter")
        assert (counter["name"], counter["n"]) == ("plan-cache.hit", 3)
        # the spool side-directory is transient
        assert not (tmp_path / "t.tel.spool").exists()

    def test_session_records_failure_status(self, tmp_path):
        path = tmp_path / "t.tel"
        with pytest.raises(RuntimeError):
            with obs.telemetry_session(path, command="unit"):
                raise RuntimeError("boom")
        assert load_stream(path)[0]["status"] == "error"
        assert obs.active_session() is None

    def test_none_path_is_noop(self, capsys):
        with obs.telemetry_session(None, command="unit") as session:
            assert session is None
            assert not obs.enabled()
            obs.count("x")
            obs.emit("y")
            with obs.span("z"):
                pass
        assert capsys.readouterr().out == ""

    def test_session_writes_nothing_to_stdout(self, tmp_path, capsys):
        with obs.telemetry_session(tmp_path / "t.tel", command="unit"):
            obs.emit("e", key=1)
        assert capsys.readouterr().out == ""

    def test_shard_call_passthrough_without_session(self):
        assert obs.shard_call(lambda u: u * 2, "k", 21) == 42

    def test_shard_call_emits_span_and_flushes_counters(self, tmp_path):
        path = tmp_path / "t.tel"
        with obs.telemetry_session(path, level="detailed", command="unit"):

            def work(unit):
                obs.count("backend.steps", unit)
                return unit

            assert obs.shard_call(work, ["size", 3], 7) == 7
        records = load_stream(path)
        shard = next(r for r in records if r.get("name") == "shard")
        assert shard["key"] == ["size", 3]
        steps = next(r for r in records if r.get("name") == "backend.steps")
        assert steps["n"] == 7 and steps["key"] == ["size", 3]


# ---------------------------------------------------------------------------
# determinism: spool merge is arrival-order independent
# ---------------------------------------------------------------------------


class TestMergeDeterminism:
    def _lines(self):
        mk = obs._canonical
        return [
            mk({"kind": "span", "name": "shard", "key": ["size", n], "seq": s,
                "pid": pid, "perf_s": 0.1 * n, "t_wall": 100.0 + n})
            for n, s, pid in [(3, 1, 11), (4, 2, 12), (5, 1, 13), (6, 2, 11)]
        ] + [
            mk({"kind": "counter", "name": "plan-cache.hit", "key": None,
                "seq": 9, "pid": 11, "n": 2, "t_wall": 101.0}),
            mk({"kind": "event", "name": "shard-retry", "key": ["size", 4],
                "seq": 3, "pid": 12, "attempt": 1, "t_wall": 102.0}),
        ]

    def test_merge_invariant_under_arrival_order(self):
        lines = self._lines()
        merged_a, dropped_a = merge_spool_lines([lines[:3], lines[3:]])
        merged_b, dropped_b = merge_spool_lines(
            [list(reversed(lines[3:])), list(reversed(lines[:3]))]
        )
        merged_c, _ = merge_spool_lines([lines[::-1]])
        assert merged_a == merged_b == merged_c
        assert dropped_a == dropped_b == 0
        assert len(merged_a) == len(lines)

    def test_merge_sorts_by_stable_keys_not_timing(self):
        lines = self._lines()
        merged, _ = merge_spool_lines([lines])
        keys = [json.loads(line)["key"] for line in merged
                if json.loads(line)["name"] == "shard"]
        assert keys == sorted(keys)  # shard order, not t_wall order

    def test_merge_drops_garbage_lines(self):
        merged, dropped = merge_spool_lines([["not json", ""], self._lines()[:1]])
        assert dropped == 1  # blank lines are skipped silently, not dropped
        assert len(merged) == 1

    def test_stable_fields_strips_only_volatile(self):
        record = {"kind": "span", "name": "shard", "key": [1], "seq": 2,
                  "pid": 9, "t_wall": 1.0, "perf_s": 2.0, "shards": 6}
        stable = stable_fields(record)
        assert "t_wall" not in stable and "perf_s" not in stable
        assert "pid" not in stable
        assert stable["shards"] == 6


# ---------------------------------------------------------------------------
# parity: telemetry is bitwise-invisible to stdout / db / ledger
# ---------------------------------------------------------------------------


CENSUS_ARGS = [
    "census", "--sizes", "3", "4", "--trials", "64",
    "--batch-size", "16", "--shard-size", "16", "--seed", "11",
]


def _census(tmp_path, capsys, tag, processes, telemetry, kind="mesh"):
    db = tmp_path / f"{tag}.db"
    ledger = tmp_path / f"{tag}.ledger"
    args = CENSUS_ARGS + [
        "--kinds", kind,
        "--processes", processes, "--db", db, "--run-ledger", ledger,
    ]
    if telemetry:
        args += ["--telemetry", tmp_path / f"{tag}.tel",
                 "--telemetry-level", "debug"]
    code, out = _run_cli(args, capsys)
    assert code == 0
    return out, db.read_bytes(), ledger.read_bytes()


def _assert_census_parity(tmp_path, capsys, processes, kind="mesh"):
    plain = _census(tmp_path, capsys, f"plain{processes}", processes, False, kind)
    telem = _census(tmp_path, capsys, f"telem{processes}", processes, True, kind)
    assert telem[0] == plain[0], "stdout must be byte-identical"
    assert telem[1] == plain[1], "witness db must be byte-identical"
    assert telem[2] == plain[2], "run ledger must be byte-identical"
    stream = tmp_path / f"telem{processes}.tel"
    assert stream.exists() and not (tmp_path / f"telem{processes}.tel.spool").exists()
    return summarize_stream(stream)["counters"]


@pytest.mark.parametrize("processes", [1, 4])
def test_census_parity_with_and_without_telemetry(tmp_path, capsys, processes):
    _assert_census_parity(tmp_path, capsys, processes)


@pytest.mark.parametrize("processes", [1, 4])
def test_dfs_census_parity_with_and_without_telemetry(tmp_path, capsys, processes):
    # the cordalis 4x4 cell runs the complement DFS (the mesh cells serve
    # cached complements), so its progress counters are under test too
    counters = _assert_census_parity(tmp_path, capsys, processes, "cordalis")
    assert 0 < counters["complement.leaves"] <= counters["complement.nodes"]


def test_census_stream_report_contents(tmp_path, capsys):
    _census(tmp_path, capsys, "rep", 4, True)
    summary = summarize_stream(tmp_path / "rep.tel")
    assert summary["command"] == "census"
    assert summary["status"] == "ok"
    # per-shard timings
    assert summary["shards"]["count"] > 0
    assert summary["shards"]["slowest"], "slowest-shard table must be populated"
    for row in summary["shards"]["slowest"]:
        assert row["seconds"] >= 0.0 and row["key"] is not None
    # plan-cache hit rate
    cache = summary["plan_cache"]
    assert cache["hits"] + cache["misses"] > 0
    assert 0.0 <= cache["hit_rate"] <= 1.0
    # retry counts (a clean run reports zero, but the key must exist)
    assert summary["retries"] == 0
    assert summary["pool_rebuilds"] == 0
    # the run actually exercised the engine counters
    assert summary["counters"].get("witnessdb.append", 0) > 0
    human = render_summary(summary)
    assert human.startswith("telemetry report:")
    assert "plan cache" in human and "shards" in human


def test_cli_telemetry_report_json_and_human(tmp_path, capsys):
    _census(tmp_path, capsys, "cli", 1, True)
    stream = tmp_path / "cli.tel"
    code, out = _run_cli(["telemetry", "report", stream, "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "census"
    assert payload["shards"]["count"] > 0
    code, out = _run_cli(["telemetry", "report", stream, "--top", "2"], capsys)
    assert code == 0
    assert out.startswith("telemetry report:")


def test_cli_telemetry_report_missing_stream(tmp_path, capsys):
    from repro.cli import main

    code = main(["telemetry", "report", str(tmp_path / "absent.tel")])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_report_rejects_newer_schema(tmp_path):
    stream = tmp_path / "future.tel"
    stream.write_text(json.dumps({"schema": TELEMETRY_SCHEMA + 1,
                                  "kind": "meta"}) + "\n")
    with pytest.raises(ValueError, match="newer"):
        load_stream(stream)


def test_summarize_counts_retries():
    records = [
        {"kind": "meta", "command": "census", "level": "basic", "status": "ok"},
        {"kind": "event", "name": "shard-retry", "key": [0], "attempt": 1},
        {"kind": "event", "name": "shard-retry", "key": [0], "attempt": 2},
        {"kind": "event", "name": "pool-rebuild", "key": [0]},
    ]
    summary = summarize(records)
    assert summary["retries"] == 2
    assert summary["pool_rebuilds"] == 1
