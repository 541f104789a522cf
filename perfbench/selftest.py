"""Self-test of the traced run: exact counts and layer separation.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For every workload it makes two traced runs at one seed and requires
identical per-layer counts (every metric in ``count`` or ``bytes``), and
checks that the layers each workload should load carry most of the traced
time while the layers it should bypass read zero.  It also checks that a
different seed makes different corpus and search inputs.  Exit code 0
means every check held.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3
SECONDS = 6

#: workload -> (layers that should carry most traced time, a count that
#: must read zero because the workload bypasses that layer)
PREDICTED = {
    "census-cold": (("complement", "runner", "blocks"), "query.records_converted"),
    "search-batch": (("batch",), "complement.nodes"),
    "corpus-serve": (("witnessdb", "query", "service"), "batch.rows"),
}


#: a line of the traced run's layer-share table, printed for people
SHARE_LINE = re.compile(r"^\s+share\.(\w+)\s+([0-9.]+)$")


def traced_run(workload: str, seed: int) -> Tuple[Dict[str, dict], Dict[str, float]]:
    """The per-layer metrics and every layer's share of one traced run."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{workload} traced run failed:\n{out.stdout}{out.stderr}")
    lines = out.stdout.strip().splitlines()
    shares = {
        m.group(1): float(m.group(2))
        for m in map(SHARE_LINE.match, lines) if m is not None
    }
    return json.loads(lines[-1])["metrics"], shares


def counts(metrics: Dict[str, dict]) -> Dict[str, float]:
    return {
        name: m["value"] for name, m in metrics.items()
        if m["unit"] in ("count", "bytes")
    }


def check_workload(workload: str) -> List[str]:
    problems = []
    (first, shares), (second, _) = traced_run(workload, SEED), traced_run(workload, SEED)
    a, b = counts(first), counts(second)
    for name in sorted(a):
        if a[name] != b.get(name):
            problems.append(f"{workload}: {name} {a[name]} then {b.get(name)}")
    loaded, bypassed = PREDICTED[workload]
    share = sum(shares[layer] for layer in loaded)
    if share <= 0.5:
        problems.append(f"{workload}: {'+'.join(loaded)} carry {share:.2f} of time")
    if first[bypassed]["value"] != 0:
        problems.append(f"{workload}: {bypassed} reads {first[bypassed]['value']}")
    print(f"{workload}: {len(a)} counts repeat, {'+'.join(loaded)} share "
          f"{share:.3f}, {bypassed} = {first[bypassed]['value']}", flush=True)
    return problems


def check_inputs() -> List[str]:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import CorpusServe, SearchBatch

    work = HERE / "_work" / "selftest-inputs"
    try:
        corpora, entropies = [], []
        for seed in (SEED, SEED + 1):
            corpus = CorpusServe(ROOT, work / str(seed), seed)
            corpora.append([p["id"] for p in corpus.base])
            entropies.append(SearchBatch(ROOT, work / str(seed), seed).entropy)
            corpus.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = []
    if corpora[0] == corpora[1]:
        problems.append("two seeds made the same corpus")
    if entropies[0] == entropies[1]:
        problems.append("two seeds made the same search inputs")
    return problems


def main() -> int:
    problems = check_inputs()
    for workload in PREDICTED:
        problems += check_workload(workload)
    for problem in problems:
        print(f"FAILED {problem}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
