"""Complement-coloring search: make an arbitrary seed into a dynamo.

The paper's constructions fix both the seed *and* a hand-crafted
complement.  This module answers the general question behind them: given a
seed ``S_k`` on a torus, does **some** coloring of ``T - S_k`` make it a
(monotone) dynamo — and with how few colors?

Two engines:

* :func:`find_dynamo_complement` — depth-first search over complement
  cells in a wavefront order.  Interior nodes apply two sound prunes,
  both tabulated once per call as functions of depth alone:

  - *seed protection*: every seed vertex whose open neighborhood is fully
    assigned must not recolor at round 1 (necessary for monotonicity).
    A seed becomes decidable at the depth that assigns its last non-seed
    neighbor, so each depth lists the seeds it must test;
  - *non-k-block prune*: the palette excludes ``k``, so the assigned
    non-k region at depth ``d`` is exactly the first ``d + 1`` cells
    whatever colors were chosen.  If it already contains a non-k-block
    no extension can ever work (Definition 5 is monotone in the assigned
    set only when the candidate block is fully assigned, so the prune
    checks assigned vertices only) — one ``prune_to_core`` pass per depth
    decides it for every node at that depth.

  Leaves are verified in blocks: each leaf's coloring is queued as one
  row of a 256-row block that :func:`~repro.engine.batch.run_batch`
  simulates in a single call (a short final block runs as it is; the
  stepper registry serves every width one plan per topology).  The
  first passing row in DFS order is re-certified by
  :func:`~repro.engine.runner.run_synchronous` and returned.

  The node budget ``max_nodes`` counts visited DFS nodes — the root,
  every child that survives the prunes, and every leaf.  Because leaves
  are verified a block at a time, the search may walk past a passing
  leaf until its block fills; that never changes the answer, which is
  the first passing leaf in DFS order, reached within the budget.

* :func:`minimum_palette_complement` — binary-search wrapper calling the
  DFS with growing palettes, returning the smallest palette size that
  admits a dynamo complement (used by the below-bound census and by the
  Theorem-2 "is 4 really enough?" exploration).

Complexity is exponential in the complement size; intended for tori up to
~6x6 (36 cells) under a node budget.  The searcher is deterministic given
the cell order, so results are reproducible.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from .. import obs
from ..engine.context import CancelCheck
from ..engine.parallel import RunCancelled
from ..engine.runner import run_synchronous, validate_round_cap
from ..rules.smp import SMPRule
from ..structures.blocks import prune_to_core
from ..topology.base import Topology

__all__ = ["find_dynamo_complement", "minimum_palette_complement"]

#: rows per leaf-verification block: the leaves queued before a flush
LEAF_BLOCK = 256


def _wavefront_order(topo: Topology, seed_ids: np.ndarray) -> List[int]:
    """Non-seed cells ordered by BFS distance from the seed.

    Assigning near-seed cells first lets the seed-protection prune fire as
    early as possible.
    """
    n = topo.num_vertices
    dist = np.full(n, -1, dtype=np.int64)
    queue = [int(v) for v in seed_ids]
    for v in queue:
        dist[v] = 0
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for w in topo.neighbors[v, : topo.degrees[v]]:
            w = int(w)
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    cells = [v for v in range(n) if dist[v] != 0]
    cells.sort(key=lambda v: (dist[v], v))
    return cells


def _blocked_depths(topo: Topology, cells: Sequence[int]) -> List[bool]:
    """Per depth ``d``: do the cells ``cells[:d + 1]`` contain a non-k-block?"""
    member = np.zeros(topo.num_vertices, dtype=bool)
    blocked = []
    for v in cells:
        member[v] = True
        blocked.append(bool(prune_to_core(topo, member, 3).any()))
    return blocked


def _seed_guards(
    topo: Topology, seeds: set, cells: Sequence[int]
) -> List[List[List[int]]]:
    """Per depth ``d``: the neighbor lists of the seeds adjacent to
    ``cells[d]`` whose whole neighborhood is assigned once ``cells[d]``
    is — the seeds the protection test decides at that depth."""
    nbrs = [
        [int(w) for w in topo.neighbors[v, : topo.degrees[v]]]
        for v in range(topo.num_vertices)
    ]
    depth = {v: d for d, v in enumerate(cells)}
    last = {
        u: max((depth[w] for w in nbrs[u] if w not in seeds), default=-1)
        for u in seeds
    }
    return [
        [nbrs[u] for u in dict.fromkeys(nbrs[v]) if u in seeds and last[u] <= d]
        for d, v in enumerate(cells)
    ]


def find_dynamo_complement(
    topo: Topology,
    seed_ids: Iterable[int] | np.ndarray,
    k: int,
    palette: Sequence[int],
    *,
    require_monotone: bool = True,
    max_nodes: int = 2_000_000,
    max_rounds: Optional[int] = None,
    cancel: Optional[CancelCheck] = None,
) -> Optional[np.ndarray]:
    """DFS for a complement coloring making ``seed_ids`` a k-dynamo.

    ``palette`` lists the non-k colors available for complement cells.
    Returns the full color vector, or None when the search space is
    exhausted (or the node budget ``max_nodes`` is hit — treat None as
    "not found", not a proof, when the budget binds).  ``cancel`` is
    polled before every leaf block is verified; once it returns True the
    search raises :class:`~repro.engine.parallel.RunCancelled`.
    """
    seeds = sorted(set(int(v) for v in seed_ids))
    n = topo.num_vertices
    if seeds and (seeds[0] < 0 or seeds[-1] >= n):
        raise ValueError("seed vertex id out of range")
    palette = [int(c) for c in palette]
    k = int(k)
    if k in palette:
        raise ValueError("palette must not contain the target color")
    if k < 0 or any(c < 0 for c in palette):
        raise ValueError("colors must be non-negative integers")
    validate_round_cap(max_rounds, topo)
    # resolved at call time so a patched engine entry point is honored
    from ..engine.batch import run_batch

    rule = SMPRule()
    update = rule.update_vertex
    cells = _wavefront_order(topo, np.asarray(seeds, dtype=np.int64))
    guards = (
        _seed_guards(topo, set(seeds), cells)
        if require_monotone
        else [[] for _ in cells]
    )
    blocked = _blocked_depths(topo, cells)
    depth_max = len(cells)
    colors = [-1] * n
    for u in seeds:
        colors[u] = k

    block = np.empty((LEAF_BLOCK, n), dtype=np.int32)
    filled = 0
    budget = max_nodes
    reported = max_nodes  # budget left at the last progress report
    found: Optional[np.ndarray] = None

    def report() -> None:
        nonlocal reported
        obs.count("complement.nodes", reported - budget)
        reported = budget

    def flush() -> Optional[np.ndarray]:
        """Verify the queued leaves; the first passing one, if any."""
        nonlocal filled
        if cancel is not None and cancel():
            raise RunCancelled("complement search cancelled")
        report()
        obs.count("complement.leaves", filled)
        rows, filled = filled, 0
        res = run_batch(
            topo, block[:rows], rule, max_rounds=max_rounds, target_color=k
        )
        ok = res.k_monochromatic
        if require_monotone:
            ok &= res.monotone
        passing = np.flatnonzero(ok)
        if passing.size == 0:
            return None
        row = block[passing[0]].copy()
        check = run_synchronous(
            topo, row, rule, max_rounds=max_rounds, target_color=k,
            track_changes=False,
        )
        if not check.is_dynamo_run(k) or (require_monotone and not check.monotone):
            raise RuntimeError(
                "run_batch and run_synchronous disagree on a complement leaf"
            )
        return row

    def dfs(idx: int) -> bool:
        """Visit one node; True stops the search (witness or budget)."""
        nonlocal budget, filled, found
        if budget <= 0:
            return True
        budget -= 1
        if idx == depth_max:
            block[filled] = colors
            filled += 1
            if filled == LEAF_BLOCK:
                found = flush()
            return found is not None
        if blocked[idx]:
            return False
        v = cells[idx]
        guard = guards[idx]
        for c in palette:
            colors[v] = c
            if guard and any(
                update(k, [colors[w] for w in nb]) != k for nb in guard
            ):
                continue
            if dfs(idx + 1):
                return True
        colors[v] = -1
        return False

    dfs(0)
    if found is None and filled:
        found = flush()
    report()
    return found


def minimum_palette_complement(
    topo: Topology,
    seed_ids: Iterable[int] | np.ndarray,
    k: int,
    *,
    max_palette: int = 6,
    require_monotone: bool = True,
    max_nodes: int = 2_000_000,
    cancel: Optional[CancelCheck] = None,
) -> Optional[tuple]:
    """Smallest non-k palette admitting a dynamo complement for the seed.

    Returns ``(palette_size, colors)`` or None when nothing works up to
    ``max_palette`` non-k colors.  ``cancel`` is handed to every DFS.
    """
    others = [c for c in range(max_palette + 1) if c != k]
    for p in range(1, max_palette + 1):
        colors = find_dynamo_complement(
            topo,
            seed_ids,
            k,
            others[:p],
            require_monotone=require_monotone,
            max_nodes=max_nodes,
            cancel=cancel,
        )
        if colors is not None:
            return p, colors
    return None
