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
    neighbor, so each depth lists the seeds it must test, each as the
    4-tuple of its neighbor ids.  The test is SMP in closed form on four
    ints: with ``e`` equal pairs among the six, the seed keeps ``k``
    when ``e`` is 0 or 2 (all distinct, or a 2-2 tie) and otherwise
    takes the color of the pair or triple;
  - *non-k-block prune*: the palette excludes ``k``, so the assigned
    non-k region at depth ``d`` is exactly the first ``d + 1`` cells
    whatever colors were chosen.  If it already contains a non-k-block
    no extension can ever work (Definition 5 is monotone in the assigned
    set only when the candidate block is fully assigned, so the prune
    checks assigned vertices only).  The 3-core only grows with the
    assigned set, so the blocked depths are a suffix and a bisection of
    ``prune_to_core`` passes finds the first of them.

  The last ``L`` cells of the wavefront (the largest ``L`` with
  ``p**L <= TAIL_ROWS`` for ``p`` palette colors) are not recursed into:
  the node that reaches them expands its whole subtree as one
  lexicographic product array, level by level, applying each depth's
  seed guards over rows and stopping at the first blocked depth.
  Lexicographic order is DFS order, and nodes are counted as the
  recursion would count them: a node's preorder rank is the order of
  its base-``(p + 1)`` key (digit ``c + 1`` per assigned cell, 0 past the
  node's depth), so a budget that runs out inside the tail keeps exactly
  the leaves ranked below it.

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
#: rows of the largest product array the vectorised tail expands
TAIL_ROWS = 4096


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


def _first_blocked_depth(topo: Topology, cells: Sequence[int]) -> int:
    """The first depth ``d`` whose cells ``cells[:d + 1]`` contain a
    non-k-block, or ``len(cells)`` when none does.

    The 3-core of a vertex set only grows with the set, so the blocked
    depths form a suffix and a bisection finds where it starts.
    """
    member = np.zeros(topo.num_vertices, dtype=bool)
    lo, hi = 0, len(cells)
    while lo < hi:
        mid = (lo + hi) // 2
        member[:] = False
        member[list(cells[: mid + 1])] = True
        if prune_to_core(topo, member, 3).any():
            hi = mid
        else:
            lo = mid + 1
    return lo


def _seed_guards(
    topo: Topology, seeds: set, cells: Sequence[int]
) -> List[List[tuple]]:
    """Per depth ``d``: the neighbor ids, as 4-tuples, of the seeds adjacent
    to ``cells[d]`` whose whole neighborhood is assigned once ``cells[d]``
    is — the seeds the protection test decides at that depth."""
    nbrs = [
        tuple(int(w) for w in topo.neighbors[v, : topo.degrees[v]])
        for v in range(topo.num_vertices)
    ]
    depth = {v: d for d, v in enumerate(cells)}
    last = {
        u: max((depth[w] for w in nbrs[u] if w not in seeds), default=-1)
        for u in seeds
    }
    guards = [
        [nbrs[u] for u in dict.fromkeys(nbrs[v]) if u in seeds and last[u] <= d]
        for d, v in enumerate(cells)
    ]
    if any(len(nb) != 4 for level in guards for nb in level):
        raise ValueError("SMP rule is defined on degree-4 neighborhoods")
    return guards


def _seed_leaves(k: int, a: int, b: int, c: int, d: int) -> bool:
    """Does a seed of color ``k`` with neighbor colors ``a, b, c, d`` recolor
    at round 1 under SMP (``update_vertex(k, [a, b, c, d]) != k``)?

    With ``e`` equal pairs among the six, SMP keeps the current color when
    ``e`` is 0 (all distinct) or 2 (a 2-2 tie); otherwise it adopts the
    color of the pair or triple.
    """
    ab, ac, ad, bc, bd, cd = a == b, a == c, a == d, b == c, b == d, c == d
    e = ab + ac + ad + bc + bd + cd
    if e == 0 or e == 2:
        return False
    return (a if ab or ac or ad else b if bc or bd else c) != k


def _seed_leaves_rows(k: int, a, b, c, d) -> np.ndarray:
    """:func:`_seed_leaves` over rows: each argument is an int array or a
    scalar broadcast against them."""
    ab, ac, ad, bc, bd, cd = a == b, a == c, a == d, b == c, b == d, c == d
    e = 1 * ab + ac + ad + bc + bd + cd
    winner = np.where(ab | ac | ad, a, np.where(bc | bd, b, c))
    return (e != 0) & (e != 2) & (winner != k)


def _tail_length(p: int, depth_max: int) -> int:
    """Cells the vectorised tail expands: the largest ``L`` with
    ``p**L <= TAIL_ROWS`` (and preorder keys that fit in int64)."""
    length = 0
    while (
        length < depth_max
        and p ** (length + 1) <= TAIL_ROWS
        and (p + 1) ** (length + 1) < 2**62
    ):
        length += 1
    return length


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
    cells = _wavefront_order(topo, np.asarray(seeds, dtype=np.int64))
    depth_max = len(cells)
    guards = (
        _seed_guards(topo, set(seeds), cells)
        if require_monotone
        else [[] for _ in cells]
    )
    first_blocked = _first_blocked_depth(topo, cells)
    colors = [-1] * n
    for u in seeds:
        colors[u] = k

    # the tail: cells[start:] are expanded as one product array
    p = len(palette)
    start = depth_max - _tail_length(p, depth_max)
    tail_cells = np.asarray(cells[start:], dtype=np.intp)
    shades = np.asarray(palette, dtype=np.int32)
    # each tail guard neighbor as (its tail column, or -1 above the tail;
    # its vertex id)
    offset = {v: d - start for d, v in enumerate(cells) if d >= start}
    tail_guards = [
        [tuple((offset.get(w, -1), w) for w in nb) for nb in guards[d]]
        for d in range(start, depth_max)
    ]
    # preorder keys: one base-(p+1) digit per tail cell, 0 where unassigned
    weights = (p + 1) ** np.arange(depth_max - start - 1, -1, -1, dtype=np.int64)

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

    def tail() -> bool:
        """Visit the node at depth ``start`` and its whole subtree at once;
        True stops the search (witness or budget)."""
        nonlocal budget, filled, found
        if budget <= 0:
            return True
        budget -= 1
        # every level of the subtree, each in lexicographic (= DFS) order
        levels: List[np.ndarray] = []
        rows = np.zeros((1, 0), dtype=np.intp)
        for d in range(start, min(depth_max, first_blocked)):
            j = d - start
            grown = np.empty((len(rows) * p, j + 1), dtype=np.intp)
            grown[:, :j] = np.repeat(rows, p, axis=0)
            grown[:, j] = np.tile(np.arange(p), len(rows))
            keep = None
            for guard in tail_guards[j]:
                around = [
                    colors[w] if o < 0 else shades[grown[:, o]] for o, w in guard
                ]
                stays = ~_seed_leaves_rows(k, *around)
                keep = stays if keep is None else keep & stays
            rows = grown if keep is None else grown[keep]
            levels.append(rows)
            if not len(rows):
                break
        total = sum(len(level) for level in levels)
        # the last level holds leaves only when no depth is blocked
        count = len(rows) if first_blocked == depth_max else 0
        ranks = None

        def preorder_ranks() -> np.ndarray:
            """Rank of each leaf among the subtree's nodes below its root."""
            keys = [(level + 1) @ weights[: level.shape[1]] for level in levels]
            return np.searchsorted(np.sort(np.concatenate(keys)), keys[-1])

        entry = budget
        if count and total > entry:
            # the budget runs out mid-tail: keep the nodes of rank < budget
            ranks = preorder_ranks()
            count = int(np.searchsorted(ranks, entry))
        template = np.asarray(colors, dtype=np.int32)
        values = shades[rows[:count]]
        i = 0
        while i < count:
            take = min(LEAF_BLOCK - filled, count - i)
            block[filled : filled + take] = template
            block[filled : filled + take, tail_cells] = values[i : i + take]
            filled += take
            i += take
            if filled == LEAF_BLOCK:
                if ranks is None:
                    ranks = preorder_ranks()
                # the walk has visited every node up to the leaf that
                # filled the block, and stops there on a witness
                budget = entry - int(ranks[i - 1]) - 1
                found = flush()
                if found is not None:
                    return True
        budget = max(entry - total, 0)
        return total > entry

    def dfs(idx: int) -> bool:
        """Visit one node; True stops the search (witness or budget)."""
        nonlocal budget, filled, found
        if idx == start and idx < depth_max:
            return tail()
        if budget <= 0:
            return True
        budget -= 1
        if idx == depth_max:
            block[filled] = colors
            filled += 1
            if filled == LEAF_BLOCK:
                found = flush()
            return found is not None
        if idx >= first_blocked:
            return False
        v = cells[idx]
        guard = guards[idx]
        for c in palette:
            colors[v] = c
            for a, b, x, y in guard:
                if _seed_leaves(k, colors[a], colors[b], colors[x], colors[y]):
                    break
            else:
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
