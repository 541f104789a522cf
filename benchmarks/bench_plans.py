"""Engine throughput with and without its two speed-ups on
search-shaped workloads.

``run_batch`` serves compiled steppers from the process-local registry
and retires cycling rows by lockstep Brent detection ("plans on").  The "plans off" side is :func:`_full_simulation`,
a bench-local loop that compiles a fresh stepper per call, retires rows
at fixed points only, and steps every cycling row to the cap.

Two entry points, mirroring ``bench_backends.py``:

* **pytest-benchmark suite** (``pytest benchmarks/bench_plans.py``) —
  times the many-small-batch search workload (thousands of
  ``run_batch`` calls over small replica blocks, cycling rows burning
  the Theorem-8 cap) on both sides, asserts the >= 1.5x acceptance
  floor (skipped under ``REPRO_BENCH_RELAX``; bitwise parity asserted
  always), and records every ratio in ``extra_info``;
* **standalone emitter** (``python benchmarks/bench_plans.py
  [--out BENCH_plans.json]``) — measures the same workloads plus the
  census-sized block and writes the machine-readable comparison CI
  archives and ``tools/compare_bench.py`` gates.  The JSON records,
  never asserts (timings move with the hardware; the oracle matrix in
  ``tests/test_engine_plans.py`` is the correctness gate).

The headline numbers come from Brent retirement: in the search regime
two thirds of random rows cycle and, simulated in full, step every round to the ``4N + 64`` bound even though their
period is 2.  Lockstep Brent detection, armed from round 1, finds each
period within a few rounds of the row entering its cycle and retires
the row with its state fast-forwarded to the cap, bitwise-identically.
The stepper cache rides along, paying off on many small calls.
"""

import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

#: wall-clock speedup floors are meaningless on loaded shared runners;
#: CI's smoke step sets this to record ratios without asserting them
_RELAX_SPEEDUP = os.environ.get("REPRO_BENCH_RELAX", "") not in ("", "0")

from repro import obs
from repro.engine import BatchRunResult, compile_stepper, run_batch
from repro.obs.report import summarize_stream
from repro.rules import GeneralizedPluralityRule, SMPRule
from repro.topology import ToroidalMesh

#: the search-shaped workloads: (label, rule factory, palette size)
WORKLOADS = {
    "smp": (lambda: SMPRule(), 5),
    "plurality": (lambda: GeneralizedPluralityRule(5), 5),
}

#: many-small-batch geometry: a below-bound floor scan issues thousands
#: of small run_batch calls against one torus
TORUS_SIZE = 4
SMALL_BATCH = 256
CALLS = 64

#: census geometry: one big block on the 6x6 cell
CENSUS_TORUS = 6
CENSUS_BATCH = 8192


def _plan_cache_counters(fn) -> dict:
    """Run ``fn`` under a throwaway telemetry session and return the
    plan-cache counter block of its stream (hits / misses / hit_rate)."""
    with tempfile.TemporaryDirectory() as tmp:
        stream = Path(tmp) / "bench.tel"
        with obs.telemetry_session(stream, level="basic", command="bench"):
            fn()
        return summarize_stream(stream)["plan_cache"]


def _paired(off, on, repeats):
    """Time ``off`` and ``on`` in ``repeats`` interleaved pairs, the
    order alternating from pair to pair: the best time of each side and
    the median of the per-pair ratios off / on.  Load that drifts over
    the run hits both members of a pair alike, where separate best-of
    blocks would each see a different slice of it."""
    times = ([], [])
    for i in range(repeats):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for side in order:
            fn = (off, on)[side]
            t0 = time.perf_counter()
            fn()
            times[side].append(time.perf_counter() - t0)
    t_off, t_on = np.asarray(times[0]), np.asarray(times[1])
    return float(t_off.min()), float(t_on.min()), float(np.median(t_off / t_on))


def _full_simulation(topo, batch, rule, *, max_rounds, target_color):
    """``run_batch`` without its speed-ups: a fresh stepper per call,
    fixed-point retirement only, and every cycling row stepped to
    ``max_rounds``.  Called like ``run_batch``."""
    colors = np.array(batch, dtype=np.int32)
    b = colors.shape[0]
    stepper = compile_stepper(rule, topo, b)
    converged = np.zeros(b, dtype=bool)
    rounds = np.zeros(b, dtype=np.int32)
    fixed_point_round = np.full(b, -1, dtype=np.int32)
    monotone = np.ones(b, dtype=bool)
    ids = np.arange(b)
    work = colors
    for t in range(1, max_rounds + 1):
        if not ids.size:
            break
        new = stepper(work)
        changed = new != work
        moved = changed.any(axis=1)
        rounds[ids] = np.where(moved, t, t - 1)
        monotone[ids[(changed & (work == target_color)).any(axis=1)]] = False
        if moved.all():
            work = new.copy()  # the scratch is reused by the next call
            continue
        done = ids[~moved]
        converged[done] = True
        fixed_point_round[done] = t - 1
        colors[done] = work[~moved]
        ids, work = ids[moved], new[moved]
    colors[ids] = work
    return BatchRunResult(
        final=colors, rounds=rounds, converged=converged,
        fixed_point_round=fixed_point_round,
        monotone=monotone, target_color=target_color,
    )


def _search_calls(topo, rule, palette, engine=run_batch, *, calls=CALLS,
                  batch=SMALL_BATCH, seed=0xBEEF):
    """The many-small-batch search loop: fresh random blocks, search flags.

    ``engine`` is ``run_batch`` or :func:`_full_simulation`."""
    rng = np.random.default_rng(seed)
    cap = 4 * topo.num_vertices + 16
    results = []
    for _ in range(calls):
        block = rng.integers(0, palette, size=(batch, topo.num_vertices)).astype(
            np.int32
        )
        results.append(
            engine(topo, block, rule, max_rounds=cap, target_color=0)
        )
    return results


def _assert_parity(on, off):
    for a, b in zip(on, off):
        assert np.array_equal(a.final, b.final)
        assert np.array_equal(a.rounds, b.rounds)
        assert np.array_equal(a.converged, b.converged)
        assert np.array_equal(a.monotone, b.monotone)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_plan_search_speedup(benchmark, workload):
    """``run_batch`` vs full simulation on the many-small-batch search
    workload, parity included.  This is the acceptance bar: >= 1.5x
    end-to-end."""
    factory, palette = WORKLOADS[workload]
    rule = factory()
    topo = ToroidalMesh(TORUS_SIZE, TORUS_SIZE)
    on = _search_calls(topo, rule, palette)  # warm the stepper registry
    off = _search_calls(topo, rule, palette, _full_simulation)
    _assert_parity(on, off)
    _, _, speedup = _paired(
        lambda: _search_calls(topo, rule, palette, _full_simulation),
        lambda: _search_calls(topo, rule, palette),
        repeats=3,
    )
    benchmark.pedantic(
        _search_calls, args=(topo, rule, palette), rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        workload=workload,
        calls=CALLS,
        batch=SMALL_BATCH,
        plan_speedup=round(speedup, 2),
    )
    if not _RELAX_SPEEDUP:
        assert speedup >= 1.5, (
            f"run_batch only {speedup:.2f}x over full simulation on the "
            f"{workload} many-small-batch search workload"
        )


def collect_plan_timings(rounds: int = 5) -> dict:
    """Measure ``run_batch`` ("plans on") against full simulation
    ("plans off") on the search workloads; the ``BENCH_plans.json``
    payload.  Each side's seconds are its best over ``rounds``
    interleaved pairs, each speedup the median per-pair ratio
    (:func:`_paired`)."""
    payload = {
        "workload": {
            "search": f"mesh {TORUS_SIZE}x{TORUS_SIZE}, {CALLS} run_batch "
            f"calls of ({SMALL_BATCH}, N) random rows",
            "census": f"mesh {CENSUS_TORUS}x{CENSUS_TORUS}, one "
            f"({CENSUS_BATCH}, N) block",
            "note": "plans on = run_batch (stepper cache + Brent cycle "
            "retirement); plans off = a fresh stepper per call, every "
            "cycling row stepped to the cap; results are bitwise-identical "
            "(tests/test_engine_plans.py), so these ratios are pure speed",
        },
        "results": {},
    }
    for label, (factory, palette) in sorted(WORKLOADS.items()):
        rule = factory()
        topo = ToroidalMesh(TORUS_SIZE, TORUS_SIZE)
        _assert_parity(
            _search_calls(topo, rule, palette),
            _search_calls(topo, rule, palette, _full_simulation),
        )
        t_off, t_on, search_speedup = _paired(
            lambda: _search_calls(topo, rule, palette, _full_simulation),
            lambda: _search_calls(topo, rule, palette),
            repeats=rounds,
        )
        big = ToroidalMesh(CENSUS_TORUS, CENSUS_TORUS)
        block = np.random.default_rng(0xD1CE).integers(
            0, palette, size=(CENSUS_BATCH, big.num_vertices)
        ).astype(np.int32)
        kw = dict(max_rounds=4 * big.num_vertices + 16, target_color=0)
        run_batch(big, block, rule, **kw)  # compile and cache the plan
        c_off, c_on, census_speedup = _paired(
            lambda: _full_simulation(big, block, rule, **kw),
            lambda: run_batch(big, block, rule, **kw),
            repeats=rounds,
        )
        # cache effectiveness, from the telemetry counters: by now the
        # cache is warm, so every one of the CALLS engine calls must be
        # served from it — a hit-rate collapse means cache identity broke
        # (an unstable plan token, say), which compare_bench.py gates
        cache = _plan_cache_counters(
            lambda: _search_calls(topo, rule, palette)
        )
        payload["results"][label] = {
            "search_seconds_plans_off": round(t_off, 3),
            "search_seconds_plans_on": round(t_on, 3),
            "search_plan_speedup": round(search_speedup, 2),
            "census_seconds_plans_off": round(c_off, 3),
            "census_seconds_plans_on": round(c_on, 3),
            "census_plan_speedup": round(census_speedup, 2),
            "plan_cache_hits": cache["hits"],
            "plan_cache_misses": cache["misses"],
            "plan_cache_hit_rate": cache["hit_rate"],
        }
    return payload


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="emit the engine speed-up comparison JSON (BENCH_plans.json)"
    )
    parser.add_argument("--out", default="BENCH_plans.json", metavar="FILE")
    parser.add_argument("--rounds", type=int, default=5,
                        help="timing repeats per measurement (interleaved "
                        "pairs; best-of for the raw times)")
    args = parser.parse_args(argv)
    payload = collect_plan_timings(rounds=args.rounds)
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for label, entry in sorted(payload["results"].items()):
        print(
            f"{label:10s} search {entry['search_seconds_plans_off']:6.3f}s -> "
            f"{entry['search_seconds_plans_on']:6.3f}s "
            f"({entry['search_plan_speedup']:4.2f}x)   census "
            f"{entry['census_seconds_plans_off']:6.3f}s -> "
            f"{entry['census_seconds_plans_on']:6.3f}s "
            f"({entry['census_plan_speedup']:4.2f}x)"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
