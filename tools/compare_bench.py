#!/usr/bin/env python
"""Benchmark-regression gate: diff a fresh benchmark JSON against the
committed one and fail on ratio regressions.

``BENCH_backends.json`` / ``BENCH_plans.json`` record *ratios* (stencil
vs reference; ``run_batch`` vs a full-simulation loop with no stepper
cache and no cycle retirement) alongside raw timings.  Raw timings move
with the hardware and are never compared; ratios are measured on one
machine against itself, so they transfer across machines up to noise —
a fresh ratio collapsing below the committed one means a kernel or the
engine loop actually got slower relative to its baseline.

This tool walks both payloads, pairs every numeric leaf whose key ends
in ``speedup`` or ``hit_rate`` or contains ``speedup_vs`` (the recorded
kernel ratios and plan-cache effectiveness), and fails when any fresh ratio falls more than ``--max-slowdown``
(default 30%) below its committed value.  Ratios present only in the
committed file fail too (a silently dropped measurement is a regression
of coverage); fresh-only ratios are reported but pass (new benchmarks
land before their baseline).

Usage::

    python tools/compare_bench.py BENCH_backends.json fresh.json
    python tools/compare_bench.py BENCH_plans.json fresh.json --max-slowdown 0.5

Exit status: 0 when every committed ratio holds, 1 on any regression,
2 on unreadable input.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Tuple

__all__ = ["collect_ratios", "compare_ratios", "main"]


def _is_ratio_key(key: str) -> bool:
    return (
        key.endswith("speedup")
        or "speedup_vs" in key
        or key.endswith("hit_rate")
    )


def collect_ratios(payload, prefix: str = "") -> Dict[str, float]:
    """Flatten a benchmark payload to ``{dotted.path: ratio}`` for every
    numeric leaf under a ratio-named key (speedups, hit rates)."""
    ratios: Dict[str, float] = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, (dict, list)):
                ratios.update(collect_ratios(value, path))
            elif _is_ratio_key(str(key)) and isinstance(value, (int, float)):
                ratios[path] = float(value)
    elif isinstance(payload, list):
        for i, value in enumerate(payload):
            ratios.update(collect_ratios(value, f"{prefix}[{i}]"))
    return ratios


def compare_ratios(
    committed: Dict[str, float],
    fresh: Dict[str, float],
    max_slowdown: float = 0.30,
) -> Tuple[List[str], List[str]]:
    """Return ``(failures, notes)`` comparing fresh ratios to committed.

    A failure is a committed ratio missing from the fresh payload or a
    fresh value below ``committed * (1 - max_slowdown)``.  Notes report
    fresh-only ratios (informational).
    """
    if not 0 <= max_slowdown < 1:
        raise ValueError(
            f"max_slowdown must be in [0, 1), got {max_slowdown!r}"
        )
    failures: List[str] = []
    notes: List[str] = []
    for path in sorted(committed):
        want = committed[path]
        have = fresh.get(path)
        if have is None:
            failures.append(f"{path}: recorded ratio missing from fresh run")
            continue
        floor = want * (1.0 - max_slowdown)
        if have < floor:
            failures.append(
                f"{path}: {have:.2f}x is more than "
                f"{max_slowdown:.0%} below the committed {want:.2f}x "
                f"(floor {floor:.2f}x)"
            )
    for path in sorted(set(fresh) - set(committed)):
        notes.append(f"{path}: new ratio {fresh[path]:.2f}x (no baseline yet)")
    return failures, notes


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when a fresh benchmark JSON regresses the "
        "committed kernel ratios"
    )
    parser.add_argument("committed", help="the checked-in baseline JSON")
    parser.add_argument("fresh", help="the freshly emitted JSON")
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=0.30,
        metavar="FRAC",
        help="largest tolerated relative drop of any ratio (default 0.30)",
    )
    args = parser.parse_args(argv)
    try:
        committed = collect_ratios(_load(args.committed))
        fresh = collect_ratios(_load(args.fresh))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not committed:
        print(f"error: no recorded ratios in {args.committed}", file=sys.stderr)
        return 2
    failures, notes = compare_ratios(committed, fresh, args.max_slowdown)
    for note in notes:
        print(f"note: {note}")
    for failure in failures:
        print(f"FAIL: {failure}")
    ok = len(committed) - len(failures)
    print(f"{ok}/{len(committed)} recorded ratios within "
          f"{args.max_slowdown:.0%} of the committed baseline")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
