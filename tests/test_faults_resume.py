"""Crash/resume integration tests, driven by the fault-injection harness.

The headline contract (ISSUE acceptance): a census killed after *any*
number of ledger commits, rerun with ``--resume``, produces stdout, a
witness database, and witness ids bitwise-identical to an uninterrupted
run — at one process and at four.  The kill sweep below proves it by
exhaustively killing at every commit boundary, and the satellite tests
cover the crash artifacts (torn tails, duplicate records, stale
dynamics) and worker death inside the pool.
"""

import json

import pytest

from faults import (
    FlakyWorker,
    HarnessKilled,
    kill_after,
    run_cli,
    run_cli_killed,
    tear_tail,
)
from repro.engine.parallel import (
    DEFAULT_SHARD_RETRIES,
    RunCancelled,
    ShardError,
    run_sharded,
)
from repro.io.ledger import LedgerScope, RunLedger
from repro.io.witnessdb import WitnessDB


def census_args(workdir, processes):
    """The small census workload every resume test kills and replays.

    Two cells (an exhaustive 3x3 and a random-search 4x4), three random
    shards, witnesses into a db — 8 ledger commits total, so the kill
    sweep crosses shard, cell, and exhaustive-outcome boundaries.
    """
    return [
        "census", "--kinds", "mesh", "--sizes", "3", "4",
        "--trials", "240", "--batch-size", "80", "--shard-size", "80",
        "--seed", "11",
        "--db", str(workdir / "db.jsonl"),
        "--run-ledger", str(workdir / "led.jsonl"),
        "--processes", str(processes),
    ]


def witness_ids(db_path):
    return [rec.id for rec in WitnessDB(db_path)]


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted run: (stdout, db bytes, witness ids, commits)."""
    ref = tmp_path_factory.mktemp("reference")
    code, out = run_cli(census_args(ref, processes=1))
    assert code == 0
    led = RunLedger(ref / "led.jsonl")
    (rid,) = led.runs
    assert led.finished(rid)
    return {
        "stdout": out,
        "db": (ref / "db.jsonl").read_bytes(),
        "ids": witness_ids(ref / "db.jsonl"),
        "commits": led.shard_count(rid),
    }


def assert_resumed_bitwise(workdir, reference, processes):
    """Resume in ``workdir`` and compare every artifact to the reference."""
    code, out = run_cli(census_args(workdir, processes) + ["--resume"])
    assert code == 0
    assert out == reference["stdout"]
    assert (workdir / "db.jsonl").read_bytes() == reference["db"]
    assert witness_ids(workdir / "db.jsonl") == reference["ids"]


# ----------------------------------------------------------------------
# the kill sweep: every commit boundary, two process counts
# ----------------------------------------------------------------------
def test_reference_workload_commits(reference):
    # the sweep below must cross more than one cell boundary
    assert reference["commits"] >= 6


@pytest.mark.parametrize("processes", [1, 4])
def test_census_killed_at_every_commit_resumes_bitwise(
    tmp_path, reference, processes
):
    for k in range(reference["commits"] + 1):
        workdir = tmp_path / f"kill-{k}"
        workdir.mkdir()
        if k < reference["commits"]:
            with pytest.raises(HarnessKilled):
                with kill_after(k):
                    run_cli(census_args(workdir, processes))
            led = RunLedger(workdir / "led.jsonl")
            (rid,) = led.runs
            assert led.shard_count(rid) == k
            assert not led.finished(rid)
        else:  # k == commits: the run completes before the kill point
            with kill_after(k):
                code, out = run_cli(census_args(workdir, processes))
            assert code == 0 and out == reference["stdout"]
        assert_resumed_bitwise(workdir, reference, processes)


def test_census_killed_parallel_resumes_serial_bitwise(tmp_path, reference):
    """Cross-process resume: killed at 4 workers, resumed inline."""
    with pytest.raises(HarnessKilled):
        with kill_after(3):
            run_cli(census_args(tmp_path, processes=4))
    assert_resumed_bitwise(tmp_path, reference, processes=1)


def test_census_sigkilled_subprocess_resumes_bitwise(tmp_path, reference):
    """The real thing: a separate process dies via ``os._exit(137)``
    (no cleanup, no flush) mid-census; resume is still bitwise."""
    proc = run_cli_killed(census_args(tmp_path, processes=2), commits=2)
    assert proc.returncode == 137, proc.stderr
    led = RunLedger(tmp_path / "led.jsonl")
    (rid,) = led.runs
    assert led.shard_count(rid) == 2
    assert_resumed_bitwise(tmp_path, reference, processes=4)


# ----------------------------------------------------------------------
# crash artifacts in the ledger file
# ----------------------------------------------------------------------
def test_census_resumes_through_torn_ledger_tail(tmp_path, reference):
    """A crash *during* an append (partial final line) loses only the
    torn record: resume heals the tail, recomputes that shard, and the
    outputs are still bitwise-identical."""
    with pytest.raises(HarnessKilled):
        with kill_after(3):
            run_cli(census_args(tmp_path, processes=1))
    tear_tail(tmp_path / "led.jsonl", drop=9)
    torn = RunLedger(tmp_path / "led.jsonl")
    assert torn.torn_tail is not None and torn.corrupt == []
    (rid,) = torn.runs
    assert torn.shard_count(rid) == 2  # the torn commit is gone
    assert_resumed_bitwise(tmp_path, reference, processes=1)
    healed = RunLedger(tmp_path / "led.jsonl")
    assert healed.torn_tail is None and healed.corrupt == []


def test_census_resume_tolerates_duplicate_shard_record(tmp_path, reference):
    """At-least-once appends are legal: an identical duplicate shard
    line (e.g. a retry that committed twice) replays as one shard."""
    code, _ = run_cli(census_args(tmp_path, processes=1))
    assert code == 0
    path = tmp_path / "led.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    shard_lines = [ln for ln in lines if b'"type":"shard"' in ln]
    lines.insert(lines.index(shard_lines[0]) + 1, shard_lines[0])
    path.write_bytes(b"".join(lines))
    dup = RunLedger(path)
    assert dup.corrupt == []
    assert_resumed_bitwise(tmp_path, reference, processes=1)


def test_census_resume_refuses_stale_dynamics(tmp_path, capsys):
    """A ledger recorded under another engine version must not replay:
    the CLI reports the stale run cleanly and exits 2."""
    code, _ = run_cli(census_args(tmp_path, processes=1))
    assert code == 0
    led = RunLedger(tmp_path / "led.jsonl")
    (rid,) = led.runs
    stale_def = led.definition(rid)
    stale_def["dynamics"] = "0-stale-engine"
    stale_path = tmp_path / "stale.jsonl"
    RunLedger(stale_path).begin(stale_def)

    args = census_args(tmp_path, processes=1) + ["--resume"]
    args[args.index(str(tmp_path / "led.jsonl"))] = str(stale_path)
    capsys.readouterr()
    code, out = run_cli(args)
    err = capsys.readouterr().err
    assert code == 2
    assert "0-stale-engine" in err and "fresh ledger" in err


# ----------------------------------------------------------------------
# worker death inside the pool
# ----------------------------------------------------------------------
def _noisy_worker(unit):
    """A pure function of its unit with a per-shard RNG stream."""
    import numpy as np

    seed, index = unit
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    return [index, float(rng.random()), int(rng.integers(0, 1_000_000))]


UNITS = [(17, i) for i in range(6)]


def test_flaky_shards_retry_to_bitwise_identical_results(tmp_path):
    """Every shard fails twice, the bounded retry absorbs it, and the
    retried results are bitwise those of an undisturbed run — the retry
    re-derives the same per-shard SeedSequence, never a fresh stream."""
    expected = [_noisy_worker(u) for u in UNITS]
    for processes in (0, 2):
        counters = tmp_path / f"raise-{processes}"
        counters.mkdir()
        flaky = FlakyWorker(_noisy_worker, counters, fail=2, mode="raise")
        got = run_sharded(flaky, UNITS, processes=processes, max_retries=2)
        assert got == expected


def test_worker_death_breaks_pool_and_recovers_bitwise(tmp_path):
    """A worker process that dies outright (``os._exit``) breaks the
    pool; the engine rebuilds it, retries the shard, and still returns
    bitwise-identical results."""
    expected = [_noisy_worker(u) for u in UNITS]
    flaky = FlakyWorker(_noisy_worker, tmp_path, fail=1, mode="exit")
    got = run_sharded(flaky, UNITS, processes=2, max_retries=2)
    assert got == expected


def test_exhausted_retries_raise_structured_shard_error(tmp_path):
    """Persistent failure surfaces as ShardError naming the ledger key
    of the failing shard and the attempts charged — not a bare worker
    traceback from somewhere inside the pool."""
    led = RunLedger(tmp_path / "led.jsonl")
    rid = led.begin({"experiment": "retry-test", "dynamics": "d1", "seed": 17})
    scope = LedgerScope(led, rid, prefix=("retry",))
    checkpoint = scope.checkpoint(len(UNITS))
    flaky = FlakyWorker(_noisy_worker, tmp_path, fail=10, mode="raise")
    with pytest.raises(ShardError) as exc_info:
        run_sharded(
            flaky, UNITS, processes=0, checkpoint=checkpoint, max_retries=2
        )
    err = exc_info.value
    assert err.key == ["retry", "shard", 0]
    assert err.attempts == 3  # 1 initial + 2 retries
    assert "['retry', 'shard', 0]" in str(err)
    assert led.shard_count(rid) == 0  # nothing bogus was committed


def test_exhausted_retries_without_checkpoint_name_the_index(tmp_path):
    flaky = FlakyWorker(_noisy_worker, tmp_path, fail=10, mode="raise")
    with pytest.raises(ShardError) as exc_info:
        run_sharded(flaky, UNITS, processes=0, max_retries=1)
    assert exc_info.value.key == 0
    assert exc_info.value.attempts == 2


def test_cancel_stops_a_running_pool_and_resumes_bitwise(tmp_path):
    """A cancel that trips while a pool is running stops it after the
    next committed shard: the shards no worker started are dropped, the
    committed ones stay in the ledger, and resuming from that ledger
    returns exactly the uninterrupted results."""
    units = [(23, i) for i in range(10)]
    expected = [_noisy_worker(u) for u in units]
    definition = {"experiment": "cancel-test", "dynamics": "d1", "seed": 23}
    led = RunLedger(tmp_path / "led.jsonl")
    rid = led.begin(definition)
    scope = LedgerScope(led, rid, prefix=("cancel",))
    with pytest.raises(RunCancelled):
        run_sharded(
            _noisy_worker, units, processes=2,
            checkpoint=scope.checkpoint(len(units)),
            max_retries=DEFAULT_SHARD_RETRIES,
            cancel=lambda: led.shard_count(rid) >= 1,
        )
    committed = RunLedger(tmp_path / "led.jsonl").shard_count(rid)
    assert 1 <= committed < len(units)

    led = RunLedger(tmp_path / "led.jsonl")
    rid = led.begin(definition, resume=True)
    scope = LedgerScope(led, rid, prefix=("cancel",))
    got = run_sharded(
        _noisy_worker, units, processes=2,
        checkpoint=scope.checkpoint(len(units)),
        max_retries=DEFAULT_SHARD_RETRIES,
    )
    assert got == expected
    assert led.shard_count(rid) == len(units)


# ----------------------------------------------------------------------
# the witness db shares the crash-safe store
# ----------------------------------------------------------------------
def test_witnessdb_torn_tail_recovers_and_heals(tmp_path):
    path = tmp_path / "db.jsonl"
    code, _ = run_cli(
        ["search", "mesh", "3", "3", "--seed-size", "3", "--colors", "3",
         "--trials", "300", "--seed", "5", "--db", str(path)]
    )
    whole = WitnessDB(path)
    records = len(list(whole))
    assert records >= 1
    tear_tail(path, drop=9)

    torn = WitnessDB(path)
    assert torn.torn_tail is not None
    assert torn.corrupt == []  # a torn tail is a crash artifact, not corruption
    assert len(list(torn)) <= records

    from test_io_witnessdb import _sample_record

    torn.add(_sample_record(provenance={"source": "post-crash"}))
    healed = WitnessDB(path)
    assert healed.torn_tail is None and healed.corrupt == []
    for line in path.read_bytes().splitlines():
        json.loads(line)  # every surviving line is whole again
