"""Benchmark of the dynamo census, search and witness service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload census-cold --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds
with nothing installed in the program.  ``--trace 1`` runs a fixed
schedule twice, untraced and then under the span tracer
(``perfbench/spans.py``) with the program's debug telemetry on, and
reports the per-layer metrics plus the tracing overhead of every
end-to-end metric.  The last line of standard output is one JSON object;
the lines before it are the same figures for people.  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: the workloads use one thread of numeric code each; the pool leg of
#: the traced run uses both cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

#: set-up repetitions per run; ``setup_s`` is the sum of two medians
SETUP_REPS = 7
#: times are reported at this reference time (see reference.py)
REFERENCE_NOMINAL_S = 0.1

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op1_norm_ms", "ms"),
    ("op2_norm_ms", "ms"),
    ("op3_norm_ms", "ms"),
)

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro; "
    "print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time of ``import repro`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(workload, reps: int) -> Dict[str, float]:
    """Medians of ``import repro`` and of the program-side set-up.

    Each repetition is also divided by a reference pass run right after
    it (``rel_*``), which follows the machine's drift as the operations'
    scaling does; the raw medians (``*_s``) are for people.
    """
    from reference import reference_seconds
    from repro.engine.plans import clear_plan_cache
    from workloads import median

    samples: Dict[str, List[float]] = {
        "import_s": [], "setup_s": [], "rel_import": [], "rel_setup": [],
    }
    for _ in range(reps):
        t = import_seconds()
        samples["import_s"].append(t)
        samples["rel_import"].append(t / reference_seconds())
        clear_plan_cache()
        t0 = time.perf_counter()
        workload.setup()
        t = time.perf_counter() - t0
        samples["setup_s"].append(t)
        samples["rel_setup"].append(t / reference_seconds())
    return {name: median(values) for name, values in samples.items()}


def end_to_end(workload, log, setup_s: float, rss: float) -> Dict[str, float]:
    """The gated metrics; times at the reference's nominal speed.

    Each operation is scaled by the reference passes around it, which
    follows the machine's drift within a run; ``setup_s`` comes scaled.
    """
    from workloads import median

    values = {"setup_s": setup_s, "peak_rss_mb": rss}
    for slot, kind in enumerate(workload.op_kinds, start=1):
        values[f"op{slot}_norm_ms"] = (
            1e3 * REFERENCE_NOMINAL_S * median(log.relative(kind))
        )
    return values


def describe_ops(workload, log) -> List[str]:
    from workloads import median

    lines = [
        f"  reference pass p50 {1e3 * median(log.reference_times):.3f} ms "
        f"({len(log.reference_times)} passes)"
    ]
    for slot, kind in enumerate(workload.op_kinds, start=1):
        lines.append(
            f"  op{slot} = {kind}: p50 {1e3 * median(log.times[kind]):.4f} ms "
            f"as measured ({len(log.times[kind])} operations)"
        )
    return lines


def measure(workload, seconds: float):
    from reference import reference_seconds
    from workloads import OpLog

    log = OpLog(reference_seconds)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        workload.round(log)
    return log


def traced(workload, seconds: float, rel_import: float, setup_s: float,
           out_lines: List[str]):
    """The fixed schedule untraced, then traced; per-layer metrics."""
    from repro import obs
    from repro.engine.plans import clear_plan_cache
    from repro.obs.report import load_stream, summarize

    import spans as tracing
    from reference import reference_seconds
    from workloads import OpLog, SearchBatch

    rounds = workload.trace_rounds(seconds)
    workload.reset()
    base = OpLog(reference_seconds)
    for _ in range(rounds):
        workload.round(base)
    base_values = end_to_end(workload, base, setup_s, peak_rss_mb())

    workload.reset()
    tracer = tracing.Tracer()
    log = OpLog(reference_seconds)
    log.checking = tracer.pause
    stream = workload.work / "telemetry.jsonl"
    tracing.install(tracer)
    try:
        with obs.telemetry_session(stream, level="debug", command="perfbench"):
            clear_plan_cache()
            t0 = time.perf_counter()
            workload.setup()
            traced_setup = (time.perf_counter() - t0) / reference_seconds()
            for _ in range(rounds):
                workload.round(log)
    finally:
        tracer.restore()
    traced_setup_s = REFERENCE_NOMINAL_S * (rel_import + traced_setup)
    values = end_to_end(workload, log, traced_setup_s, peak_rss_mb())
    records = load_stream(stream)
    counters = summarize(records)["counters"]
    # one cell's time is taken from the cold censuses only: the set-up's
    # warm-up census and the cached re-runs emit ``cell`` spans too
    windows = getattr(workload, "cold_windows", [])
    cells: Dict[str, float] = {}
    for record in records:
        if (
            record.get("kind") == "span" and record.get("name") == "cell"
            and any(a <= record["t_wall"] <= b for a, b in windows)
        ):
            kind, n = record["key"]
            cells[f"{kind}-{n}"] = cells.get(f"{kind}-{n}", 0.0) + record["perf_s"]
    metrics = tracing.layer_metrics(tracer, counters, cells, len(windows))
    pool_s = inline_s = 0.0
    if isinstance(workload, SearchBatch):
        clear_plan_cache()  # drop the steppers compiled with timing shims
        pool_s, inline_s = workload.pool_leg(log)
    metrics["parallel.pool_s"] = (pool_s, "s")
    metrics["parallel.pool_ratio"] = (pool_s / inline_s if inline_s else 0.0, "ratio")
    for name, unit in END_TO_END:
        metrics[f"overhead.{name}"] = (values[name] - base_values[name], unit)
    out_lines.append(
        f"traced schedule: {rounds} rounds, {len(tracer.spans)} spans, "
        f"{log.attempted} traced operations"
    )
    out_lines.append("layer shares (self time over traced time):")
    for layer, share in tracing.layer_shares(tracer).items():
        out_lines.append(f"  share.{layer:<14} {share:8.4f}")
    for name, unit in END_TO_END:
        out_lines.append(
            f"  {name:<24} untraced {base_values[name]:12.4f}  "
            f"traced {values[name]:12.4f}  overhead "
            f"{values[name] - base_values[name]:+10.4f} {unit}"
        )
    return metrics, [base, log]


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("census-cold", "search-batch", "corpus-serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    from workloads import WORKLOADS

    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workload = None
    try:
        workload = WORKLOADS[args.workload](ROOT, work, args.seed)
        setup = timed_setup(workload, SETUP_REPS)
        setup_s = REFERENCE_NOMINAL_S * (setup["rel_import"] + setup["rel_setup"])
        lines = [
            f"workload {args.workload}  seed {args.seed}  import "
            f"{setup['import_s']:.4f} s  set-up {setup['setup_s']:.4f} s "
            f"(as measured, medians of {SETUP_REPS})"
        ]
        if args.trace:
            metrics, logs = traced(workload, args.seconds, setup["rel_import"],
                                   setup_s, lines)
            lines.append("per-layer metrics (traced schedule):")
            for name, (value, unit) in metrics.items():
                lines.append(f"  {name:<34} {value:16.6f} {unit}")
        else:
            log = measure(workload, args.seconds)
            logs = [log]
            values = end_to_end(workload, log, setup_s, peak_rss_mb())
            metrics = {name: (values[name], unit) for name, unit in END_TO_END}
            for name, value, unit, note in workload.figures(log):
                lines.append(f"  {name:<32} {value:14.4f} {unit:<4} ({note})")
            lines.extend(describe_ops(workload, log))
        attempted = sum(log.attempted for log in logs)
        failed = sum(log.failed for log in logs)
        lines.append(
            f"  error_rate {failed / max(attempted, 1):.6f} ratio "
            f"({failed} failed of {attempted} operations)"
        )
        for log in logs:
            for error in log.errors:
                lines.append(f"  FAILED {error}")
        # an operation kind with no successful sample leaves a NaN
        finite = all(math.isfinite(value) for value, _unit in metrics.values())
        correct = failed == 0 and finite
        print("\n".join(lines))
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value if math.isfinite(value) else None,
                       "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }))
        return 0 if correct else 1
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
