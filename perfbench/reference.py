"""A fixed reference workload that gauges the machine's speed during a run.

The benchmark runs on shared cores whose speed drifts by 10-30% over
minutes.  A run therefore interleaves samples of this reference with its
operations and reports each operation's median in units of the
reference's median (see ``NOTE.md``).  The reference uses numpy and the
standard library only, never the program, so a change to the program
cannot move it.  Its three parts are the three kinds of work the program
does: Python loops over small arrays (the complement DFS and scalar leaf
check), whole-block array passes (the batched kernels), and JSON records
(the witness store and service).
"""

from __future__ import annotations

import json
import time

import numpy as np

_SIDE = 6
_N = _SIDE * _SIDE
#: 4-neighbour table of the 6x6 torus
_NEIGHBORS = np.array([
    [((i // _SIDE + di) % _SIDE) * _SIDE + (i % _SIDE + dj) % _SIDE
     for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1))]
    for i in range(_N)
])
_BLOCK = np.random.default_rng(1).integers(0, 5, size=(4096, _N)).astype(np.int32)
_RECORDS = [
    json.dumps({
        "id": f"{i:012x}", "kind": ("mesh", "cordalis", "serpentinus")[i % 3],
        "m": 3 + i % 6, "n": 3 + i % 5, "colors": 3 + i % 4,
        "configuration": [(i * j) % 5 for j in range(36)],
        "provenance": {"source": "reference", "draw": i},
    }, sort_keys=True)
    for i in range(300)
]


def _small_arrays(rng: np.random.Generator) -> None:
    for _ in range(200):
        member = rng.random(_N) < 0.8
        while True:
            keep = member & (member[_NEIGHBORS].sum(axis=1) >= 3)
            if np.array_equal(keep, member):
                break
            member = keep
        colors = rng.integers(0, 4, _N)
        for _ in range(4):
            counts = np.zeros((_N, 4), dtype=np.int64)
            for j in range(4):
                np.add.at(counts, (np.arange(_N), colors[_NEIGHBORS[:, j]]), 1)
            colors = np.where(counts.max(axis=1) >= 2, counts.argmax(axis=1), colors)


def _block_passes() -> None:
    block = _BLOCK
    for i in range(10):
        same = (block[:, _NEIGHBORS] == i % 5).sum(axis=2)
        block = np.where(same >= 2, i % 5, block).astype(np.int32)
        (block != _BLOCK).any(axis=1).sum()


def _records() -> None:
    for _ in range(9):
        rows = [json.loads(line) for line in _RECORDS]
        kept = [r for r in rows if r["kind"] == "mesh" or r["m"] == 5]
        json.dumps(kept, sort_keys=True)


def reference_seconds() -> float:
    """Wall time of one pass of the reference (about 0.1 s here)."""
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    _small_arrays(rng)
    _block_passes()
    _records()
    return time.perf_counter() - t0
