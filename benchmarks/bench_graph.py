"""Irregular-graph throughput: batched run_batch vs a scalar replica loop.

The scale-free census advances every replica of a BA graph as one
``(R, N)`` block through :func:`repro.engine.run_batch` on the compiled
kernel, whose plurality plan histograms irregular tables in CSR form
(``O(edges)`` per round).  Before the rewiring, ``ext/scale_free``
looped :func:`run_synchronous` one replica at a time over the rule's own
kernel (reached here through :func:`helpers.rule_kernel_only`) — the
irregular-graph path the compiled kernel did not yet serve, paying the
padded ``O(N * max_degree)`` per-slot ``np.add.at`` scatter that a
scale-free hub makes pathological.  This benchmark pins
that the rewiring is worth its complexity on the graphs the census
actually runs:

* **pytest-benchmark suite** (``pytest benchmarks/bench_graph.py``) —
  times both paths on BA graphs at N = 1k and N = 10k, asserts the
  >= 5x batched-over-scalar acceptance floor (skipped under
  ``REPRO_BENCH_RELAX``; the bitwise parity of the two paths is asserted
  always), and records the ratio in ``extra_info``;
* **standalone emitter** (``python benchmarks/bench_graph.py
  [--out BENCH_graph.json]``) — writes the machine-readable comparison
  that ``tools/compare_bench.py`` guards in CI.  The JSON records, never
  asserts: raw timings move with the hardware, ratios are measured on
  one machine against itself.

The workload is the census regime: the generalized plurality rule with
the audible-degree threshold, replicas of random colorings with a hub
seed, padded irregular neighbor tables.
"""

import json
import os
import time

import numpy as np
import pytest

#: wall-clock floors are meaningless on loaded shared runners; CI's smoke
#: step sets this to record ratios without asserting them
_RELAX_SPEEDUP = os.environ.get("REPRO_BENCH_RELAX", "") not in ("", "0")

from repro.engine import run_batch, run_synchronous
from repro.rules import GeneralizedPluralityRule
from repro.topology import GraphTopology

from bench_helpers import rule_kernel_only

#: the census-shaped workloads: label -> (vertices, replicas)
WORKLOADS = {
    "ba-1k": (1_000, 32),
    "ba-10k": (10_000, 8),
}

NUM_COLORS = 4
MAX_ROUNDS = 48


def _ba_graph(n: int, seed: int = 0xBA) -> GraphTopology:
    import networkx as nx

    return GraphTopology(nx.barabasi_albert_graph(n, 2, seed=seed))


def _replica_block(topo: GraphTopology, replicas: int) -> np.ndarray:
    """Hub-seeded random replicas, the scale-free census initial states."""
    rng = np.random.default_rng(0x5CA1E)
    n = topo.num_vertices
    hubs = np.argsort(-topo.degrees.astype(np.int64), kind="stable")[
        : max(1, n // 50)
    ]
    block = rng.integers(1, NUM_COLORS, size=(replicas, n)).astype(np.int32)
    block[:, hubs] = 0
    return block


def _tmin(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _paths(topo, block, rule):
    kwargs = dict(max_rounds=MAX_ROUNDS, target_color=0)

    def batched():
        return run_batch(topo, block, rule, **kwargs)

    def scalar_loop():
        # the pre-refactor census path: one replica at a time on the
        # rule's own kernel (the compiled kernel did not serve irregular
        # graphs before the generalization)
        with rule_kernel_only():
            return [
                run_synchronous(topo, block[i], rule, detect_cycles=False, **kwargs)
                for i in range(block.shape[0])
            ]

    return batched, scalar_loop


def _assert_parity(batch_res, scalar_runs):
    for i, run in enumerate(scalar_runs):
        assert np.array_equal(batch_res.final[i], run.final), i
        assert int(batch_res.rounds[i]) == run.rounds, i
        assert bool(batch_res.converged[i]) == run.converged, i


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_batched_graph_speedup(benchmark, workload):
    """The acceptance bar: >= 5x batched over the scalar replica loop."""
    n, replicas = WORKLOADS[workload]
    topo = _ba_graph(n)
    block = _replica_block(topo, replicas)
    rule = GeneralizedPluralityRule(NUM_COLORS)
    batched, scalar_loop = _paths(topo, block, rule)
    _assert_parity(batched(), scalar_loop())  # warm both paths + parity
    speedup = _tmin(scalar_loop) / _tmin(batched)
    benchmark.pedantic(batched, rounds=1, iterations=1)
    benchmark.extra_info.update(
        workload=workload,
        vertices=n,
        replicas=replicas,
        batched_speedup_vs_scalar=round(speedup, 2),
    )
    if not _RELAX_SPEEDUP:
        assert speedup >= 5.0, (
            f"batched graph engine only {speedup:.2f}x over the scalar "
            f"replica loop on {workload}"
        )


def collect_graph_timings(repeats: int = 3) -> dict:
    """Measure both paths on every workload; the BENCH_graph.json payload."""
    payload = {
        "workload": {
            "graph": "barabasi-albert m=2",
            "rule": f"plurality[{NUM_COLORS}]",
            "max_rounds": MAX_ROUNDS,
            "note": "census regime: hub-seeded random replicas on "
            "irregular tables; scalar = the pre-refactor path (one "
            "run_synchronous per replica on the reference kernels), "
            "batched = one (R, N) run_batch on the stencil backend's "
            "CSR plurality plan",
        },
        "results": {},
    }
    for label, (n, replicas) in sorted(WORKLOADS.items()):
        topo = _ba_graph(n)
        block = _replica_block(topo, replicas)
        rule = GeneralizedPluralityRule(NUM_COLORS)
        batched, scalar_loop = _paths(topo, block, rule)
        _assert_parity(batched(), scalar_loop())  # warm + parity
        scalar_s = _tmin(scalar_loop, repeats=repeats)
        batched_s = _tmin(batched, repeats=repeats)
        payload["results"][label] = {
            "vertices": n,
            "replicas": replicas,
            "scalar_loop_seconds": round(scalar_s, 4),
            "batched_seconds": round(batched_s, 4),
            "batched_speedup_vs_scalar": round(scalar_s / batched_s, 2),
        }
    return payload


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="emit the irregular-graph batching JSON (BENCH_graph.json)"
    )
    parser.add_argument("--out", default="BENCH_graph.json", metavar="FILE")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per measurement (best-of)")
    args = parser.parse_args(argv)
    payload = collect_graph_timings(repeats=args.repeats)
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for label, entry in sorted(payload["results"].items()):
        print(
            f"{label:8s} N={entry['vertices']:<6d} R={entry['replicas']:<3d} "
            f"scalar {entry['scalar_loop_seconds']:8.3f}s  "
            f"batched {entry['batched_seconds']:8.3f}s  "
            f"{entry['batched_speedup_vs_scalar']:5.2f}x"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
