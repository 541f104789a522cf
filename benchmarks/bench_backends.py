"""Kernel throughput: the rules' own ``step_batch`` ("reference") vs the
compiled kernel ("stencil", :func:`repro.engine.stencil.compile_stepper`).

Two entry points:

* **pytest-benchmark suite** (``pytest benchmarks/bench_backends.py``) —
  times both steppers and the end-to-end ``run_batch`` hot path on the
  census-sized workload, asserts the compiled kernel's >= 2x acceptance
  floor (skipped under ``REPRO_BENCH_RELAX``, parity asserted always),
  and records every ratio in ``extra_info``;
* **standalone emitter** (``python benchmarks/bench_backends.py
  [--out BENCH_backends.json]``) — runs the same workloads on both
  kernels and writes the machine-readable comparison CI archives.  The
  JSON never asserts: it *records* (timings move with the hardware; the
  parity matrix in ``tests/test_engine_backends.py`` is the correctness
  gate).

``run_batch`` reaches the rules' own kernels through
:func:`helpers.rule_kernel_only`, the seam the parity suites use.

The workload is the census/search regime the ROADMAP calls the hottest
path: thousands of random replicas on a small torus (the below-bound
census steps ``(8192, 36)`` blocks on the 6x6 tori), advanced by SMP
and by the ceil(d/2) plurality rule, which the compiler serves the SMP
plan on a torus (the rule's own kernel is its histogram).
"""

import json
import os
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

#: wall-clock speedup floors are meaningless on loaded shared runners;
#: CI's smoke step sets this to record ratios without asserting them
_RELAX_SPEEDUP = os.environ.get("REPRO_BENCH_RELAX", "") not in ("", "0")

from repro import obs
from repro.engine import compile_stepper, run_batch
from repro.engine.stencil import fallback_stepper
from repro.obs.report import summarize_stream
from repro.rules import GeneralizedPluralityRule, SMPRule
from repro.topology import ToroidalMesh

from bench_helpers import rule_kernel_only

#: the census-sized workloads: (label, rule factory, palette size)
WORKLOADS = {
    "smp": (lambda: SMPRule(), 5),
    "plurality": (lambda: GeneralizedPluralityRule(5), 5),
}

#: census geometry: the 6x6 torus cell stepping full replica blocks
TORUS_SIZE = 6
BATCH = 8192

#: the two kernels, by their names in BENCH_backends.json: a stepper
#: factory and the engine context that routes ``run_batch`` through it
KERNELS = {
    "reference": (lambda rule, topo, b: fallback_stepper(rule, topo),
                  rule_kernel_only),
    "stencil": (compile_stepper, nullcontext),
}


def _tmin(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _plan_cache_counters(fn) -> dict:
    """Run ``fn`` under a throwaway telemetry session and return the
    plan-cache counter block of its stream (hits / misses / hit_rate)."""
    with tempfile.TemporaryDirectory() as tmp:
        stream = Path(tmp) / "bench.tel"
        with obs.telemetry_session(stream, level="basic", command="bench"):
            fn()
        return summarize_stream(stream)["plan_cache"]


def _census_batch(rng, topo, palette, batch=BATCH):
    return rng.integers(0, palette, size=(batch, topo.num_vertices)).astype(
        np.int32
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_stencil_stepper_speedup(benchmark, rng, workload):
    """Compiled stepper vs the rule's own kernel, parity included.

    This is the acceptance bar: >= 2x on the census-sized workload (the
    per-round kernel cost that dominates sweeps/censuses/searches).
    """
    factory, palette = WORKLOADS[workload]
    rule = factory()
    topo = ToroidalMesh(TORUS_SIZE, TORUS_SIZE)
    batch = _census_batch(rng, topo, palette)
    reference = fallback_stepper(rule, topo)
    stencil = compile_stepper(rule, topo, BATCH)
    assert np.array_equal(stencil(batch), reference(batch))  # warm + parity
    speedup = _tmin(lambda: reference(batch)) / _tmin(lambda: stencil(batch))
    benchmark(stencil, batch)
    benchmark.extra_info.update(
        workload=workload,
        vertices=topo.num_vertices,
        batch=BATCH,
        stencil_speedup=round(speedup, 2),
    )
    if not _RELAX_SPEEDUP:
        assert speedup >= 2.0, (
            f"compiled kernel only {speedup:.2f}x over reference on the "
            f"{workload} census workload"
        )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_run_batch_backend_speedup(benchmark, rng, workload):
    """End-to-end run_batch on each kernel (census flags: target color
    0), parity asserted, ratio recorded."""
    factory, palette = WORKLOADS[workload]
    rule = factory()
    topo = ToroidalMesh(TORUS_SIZE, TORUS_SIZE)
    batch = _census_batch(rng, topo, palette, batch=2048)
    kwargs = dict(max_rounds=160, target_color=0)

    def reference():
        with rule_kernel_only():
            return run_batch(topo, batch, rule, **kwargs)

    def stencil():
        return run_batch(topo, batch, rule, **kwargs)

    ref, res = reference(), stencil()  # warm + parity cross-check
    assert np.array_equal(ref.final, res.final)
    assert np.array_equal(ref.rounds, res.rounds)
    speedup = _tmin(reference, repeats=3) / _tmin(stencil, repeats=3)
    benchmark.pedantic(stencil, rounds=1, iterations=1)
    benchmark.extra_info.update(
        workload=workload, replicas=2048, run_batch_stencil_speedup=round(speedup, 2)
    )
    if not _RELAX_SPEEDUP:
        assert speedup >= 1.5  # engine bookkeeping dilutes the kernel win


def collect_backend_timings(rounds: int = 20) -> dict:
    """Measure both kernels on the census-sized workloads.

    Returns the ``BENCH_backends.json`` payload: per-workload stepper
    times (best-of-``rounds`` milliseconds per round over the full
    ``(8192, 36)`` block), warm end-to-end ``run_batch`` seconds
    (best-of-``rounds``, each timed call after a compiling one), and
    speedups relative to the rules' own kernels (``reference``).

    Both the steppers and the ``run_batch`` calls are timed in
    interleaved pairs (one reference call, then one compiled call, per
    repeat) and each speedup is the median of the per-pair ratios: load
    that drifts over the run hits both members of a pair alike, where
    separate best-of blocks would each see a different slice of it.
    On both workloads the compiled side's ``run_batch`` runs the
    bit-sliced SMP path, so its ratios gate that path.
    """
    rng = np.random.default_rng(0xD1CE)
    topo = ToroidalMesh(TORUS_SIZE, TORUS_SIZE)
    backends = list(KERNELS)
    payload = {
        "workload": {
            "torus": f"mesh {TORUS_SIZE}x{TORUS_SIZE}",
            "batch": BATCH,
            "palette": 5,
            "note": "census-sized: the below-bound census steps blocks of "
            "this shape; times are best-of-N per synchronous round",
        },
        "backends": backends,
        "results": {},
    }
    for label, (factory, palette) in sorted(WORKLOADS.items()):
        rule = factory()
        batch = _census_batch(rng, topo, palette)
        small = batch[:2048]
        steppers = {
            name: KERNELS[name][0](rule, topo, BATCH) for name in backends
        }
        for stepper in steppers.values():
            stepper(batch)  # warm
        step_s = {name: [] for name in backends}
        for _ in range(rounds):
            for name in backends:
                t0 = time.perf_counter()
                steppers[name](batch)
                step_s[name].append(time.perf_counter() - t0)
        ref_step = np.asarray(step_s["reference"])

        def run():
            return run_batch(topo, small, rule, max_rounds=160, target_color=0)

        # run_batch in interleaved warm pairs too.  rule_kernel_only
        # empties the stepper registry on entry and on exit, so each
        # side's first call in its own context compiles and caches its
        # stepper, and the timed call after it is warm, as every call
        # after the first in a census or search is
        run_s = {name: [] for name in backends}
        for _ in range(rounds):
            for name in backends:
                with KERNELS[name][1]():
                    run()
                    t0 = time.perf_counter()
                    run()
                    run_s[name].append(time.perf_counter() - t0)
        ref_run = np.asarray(run_s["reference"])
        entry = {}
        for name in backends:
            with KERNELS[name][1]():
                run()
                # cache effectiveness: a warm call must be served
                # entirely from the stepper registry — compare_bench.py
                # gates the hit rate against the committed baseline
                cache = _plan_cache_counters(run)
            entry[name] = {
                "step_ms_per_round": round(1e3 * min(step_s[name]), 3),
                "step_speedup_vs_reference": round(
                    float(np.median(ref_step / np.asarray(step_s[name]))), 2
                ),
                "run_batch_seconds": round(min(run_s[name]), 3),
                "run_batch_speedup_vs_reference": round(
                    float(np.median(ref_run / np.asarray(run_s[name]))), 2
                ),
                "plan_cache_hits": cache["hits"],
                "plan_cache_misses": cache["misses"],
                "plan_cache_hit_rate": cache["hit_rate"],
            }
        payload["results"][label] = entry
    return payload


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="emit the kernel-comparison JSON (BENCH_backends.json)"
    )
    parser.add_argument("--out", default="BENCH_backends.json", metavar="FILE")
    parser.add_argument("--rounds", type=int, default=20,
                        help="timing repeats per measurement (interleaved "
                        "pairs; best-of for the raw times)")
    args = parser.parse_args(argv)
    payload = collect_backend_timings(rounds=args.rounds)
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for label, entry in sorted(payload["results"].items()):
        for name, timing in sorted(entry.items()):
            print(
                f"{label:10s} {name:10s} "
                f"{timing['step_ms_per_round']:9.2f} ms/round  "
                f"{timing['step_speedup_vs_reference']:5.2f}x kernel  "
                f"{timing['run_batch_speedup_vs_reference']:5.2f}x run_batch"
            )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
