"""Importable shared test helpers.

Test modules import these with ``from helpers import ...`` (pytest's
default ``prepend`` import mode puts each test module's directory on
``sys.path``).  They deliberately do NOT live in ``conftest.py``:
``conftest`` is a rootdir-wide singleton module name, so importing from
it breaks as soon as another directory (e.g. ``benchmarks/``) also has a
``conftest.py`` collected in the same session.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Iterable, Optional, Sequence

import numpy as np

from repro.core.complement import _wavefront_order
from repro.engine import plans
from repro.engine.batch import BatchRunResult, run_batch
from repro.engine.schedulers import AsyncSchedule, run_asynchronous
from repro.engine.stencil import fallback_stepper
from repro.engine.runner import run_synchronous
from repro.rules.base import Rule
from repro.rules.smp import SMPRule
from repro.structures.blocks import prune_to_core
from repro.topology import ToroidalMesh, TorusCordalis, TorusSerpentinus
from repro.topology.base import Topology

#: the three torus classes, keyed by the registry names used everywhere
TORUS_KINDS = {
    "mesh": ToroidalMesh,
    "cordalis": TorusCordalis,
    "serpentinus": TorusSerpentinus,
}


@contextmanager
def rule_kernel_only() -> Iterator[None]:
    """Run every engine call in the block on the rules' own ``step_batch``.

    Substitutes :func:`~repro.engine.stencil.fallback_stepper` for
    :func:`~repro.engine.stencil.compile_stepper` where the plan layer
    compiles, and clears the plan cache on entry and on exit so no
    stepper compiled on one side of the seam is served on the other.
    This is the "compiled kernel vs the rule's own kernel" axis of the
    parity suites.  Inline runs only: pool workers compile their own.
    """
    compile_stepper = plans.compile_stepper
    plans.clear_plan_cache()
    plans.compile_stepper = lambda rule, topo, max_batch: fallback_stepper(rule, topo)
    try:
        yield
    finally:
        plans.compile_stepper = compile_stepper
        plans.clear_plan_cache()


#: every per-row field of a :class:`BatchRunResult`
RESULT_FIELDS = (
    "final", "rounds", "converged", "fixed_point_round", "monotone",
)


def per_row_oracle(topo, batch, rule, *, detect_cycles=False, **kwargs):
    """Per-row :func:`run_synchronous`: every row stepped on its own as
    a ``(1, N)`` block, without the packed kernel or Brent retirement —
    to the cap by default, or to its first repeated state with
    ``detect_cycles=True``."""
    return [
        run_synchronous(
            topo, row, rule, track_changes=False, detect_cycles=detect_cycles,
            **kwargs,
        )
        for row in batch
    ]


def assert_verdicts_match(res, oracle, context):
    """What the drivers read agrees with a first-repeat oracle: whether
    each row converged and stayed monotone, and every field of a
    converged row (so k-monochromatic too).  A cycling row's rounds and
    final state depend on where the runner stops it, so they are not
    compared."""
    assert res.batch_size == len(oracle), context
    for b, ref in enumerate(oracle):
        row = res.row(b)
        assert row.converged == ref.converged, (context, b)
        assert row.monotone == ref.monotone, (context, b)
        if ref.converged:
            assert np.array_equal(row.final, ref.final), (context, b)
            assert row.rounds == ref.rounds, (context, b)
            assert row.fixed_point_round == ref.fixed_point_round, (context, b)


def assert_matches_oracle(res, oracle, context, rows=None):
    """Every :data:`RESULT_FIELDS` entry of every row agrees; with
    ``rows``, ``oracle`` replays only those rows of ``res``."""
    rows = range(res.batch_size) if rows is None else rows
    assert len(rows) == len(oracle), context
    for b, ref in zip(rows, oracle):
        row = res.row(b)
        for field in RESULT_FIELDS:
            got, want = getattr(row, field), getattr(ref, field)
            if field == "final":
                assert np.array_equal(got, want), (context, b, field)
            else:
                assert got == want, (context, b, field, got, want)


def assert_per_row_matches_own_kernel(topo, batch, rule, context, **kwargs):
    """Per-row :func:`run_synchronous` on the kernel in force equals the
    same calls on the rules' own kernel, every field of every row."""
    got = per_row_oracle(topo, batch, rule, **kwargs)
    with rule_kernel_only():
        want = per_row_oracle(topo, batch, rule, **kwargs)
    for b, (row, ref) in enumerate(zip(got, want)):
        for field in RESULT_FIELDS:
            assert np.array_equal(getattr(row, field), getattr(ref, field)), (
                context, b, field,
            )


def assert_matches_own_kernel(variant, topo, batch, rule, res, context, **kwargs):
    """``res`` equals the run of ``batch`` on the rules' own kernel that
    ``variant`` names: per-row :func:`run_synchronous` to the cap for
    ``"no-cycles"``, :func:`run_batch` otherwise (every field, bitwise)."""
    with rule_kernel_only():
        if variant == "no-cycles":
            oracle = per_row_oracle(topo, batch, rule, **kwargs)
            assert_matches_oracle(res, oracle, context)
            return
        ref = run_batch(topo, batch, rule, **kwargs)
    for field in RESULT_FIELDS:
        got, want = getattr(res, field), getattr(ref, field)
        if got is None or want is None:
            assert got is want, (context, field)
        else:
            assert np.array_equal(got, want), (context, field)


def random_coloring(topo, num_colors, rng, low=0):
    """Uniform random coloring with colors in [low, low + num_colors)."""
    return rng.integers(low, low + num_colors, size=topo.num_vertices).astype(
        np.int32
    )


def grid_colors(topo, rows):
    """Build a color vector from a list-of-lists grid literal."""
    arr = np.asarray(rows, dtype=np.int32)
    assert arr.shape == (topo.m, topo.n)
    return arr.reshape(-1)


def reference_dynamo_complement(
    topo: Topology,
    seed_ids: Iterable[int] | np.ndarray,
    k: int,
    palette: Sequence[int],
    *,
    require_monotone: bool = True,
    max_nodes: int = 2_000_000,
    max_rounds: Optional[int] = None,
) -> Optional[np.ndarray]:
    """The scalar complement DFS: one ``run_synchronous`` per leaf and a
    whole-graph ``prune_to_core`` at every node.

    Reference for :func:`repro.core.complement.find_dynamo_complement`,
    which must return the same vector (or None) on every input.

    ``palette`` lists the non-k colors available for complement cells.
    Returns the full color vector, or None when the search space is
    exhausted (or the node budget ``max_nodes`` is hit — treat None as
    "not found", not a proof, when the budget binds).
    """
    seed_ids = np.asarray(sorted(set(int(v) for v in seed_ids)), dtype=np.int64)
    n = topo.num_vertices
    if seed_ids.size and (seed_ids[0] < 0 or seed_ids[-1] >= n):
        raise ValueError("seed vertex id out of range")
    palette = [int(c) for c in palette]
    if k in palette:
        raise ValueError("palette must not contain the target color")
    colors = np.full(n, -1, dtype=np.int64)
    colors[seed_ids] = k
    cells = _wavefront_order(topo, seed_ids)
    rule = SMPRule()
    budget = [max_nodes]

    def fully_assigned_neighbors(v: int) -> bool:
        nb = topo.neighbors[v, : topo.degrees[v]]
        return bool(np.all(colors[nb] >= 0))

    def seed_protected(v: int) -> bool:
        """Seed vertex v keeps k at round 1 (only called when decidable)."""
        nb = [int(colors[int(w)]) for w in topo.neighbors[v, : topo.degrees[v]]]
        return rule.update_vertex(k, nb) == k

    def assigned_non_k_block_exists() -> bool:
        assigned_non_k = colors >= 0
        assigned_non_k &= colors != k
        core = prune_to_core(topo, assigned_non_k, 3)
        return bool(core.any())

    def leaf_check() -> bool:
        cand = colors.astype(np.int32)
        res = run_synchronous(
            topo, cand, rule, max_rounds=max_rounds, target_color=k,
            track_changes=False,
        )
        ok = res.is_dynamo_run(k)
        if ok and require_monotone:
            ok = bool(res.monotone)
        return ok

    def dfs(idx: int) -> bool:
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        if idx == len(cells):
            return leaf_check()
        v = cells[idx]
        for c in palette:
            colors[v] = c
            if require_monotone:
                bad = False
                for u in [v] + [int(w) for w in topo.neighbors[v, : topo.degrees[v]]]:
                    if colors[u] == k and fully_assigned_neighbors(u):
                        if not seed_protected(u):
                            bad = True
                            break
                if bad:
                    continue
            if assigned_non_k_block_exists():
                continue
            if dfs(idx + 1):
                return True
        colors[v] = -1
        return False

    if dfs(0):
        return colors.astype(np.int32)
    return None


def reference_async_trials(
    con, schedule: AsyncSchedule, *, max_sweeps: Optional[int] = None
) -> BatchRunResult:
    """The scalar oracle for the batched schedule engine.

    Replays every trial of ``schedule`` through
    :func:`~repro.engine.schedulers.run_asynchronous`, one row at a time,
    and assembles the results into the :class:`BatchRunResult` that
    :func:`~repro.engine.schedulers.run_asynchronous_batch` returns for
    the same schedule.
    """
    trials = schedule.batch_size
    n = con.topo.num_vertices
    final = np.empty((trials, n), dtype=np.int32)
    rounds = np.zeros(trials, dtype=np.int32)
    converged = np.zeros(trials, dtype=bool)
    fixed_point_round = np.full(trials, -1, dtype=np.int32)
    monotone = np.ones(trials, dtype=bool)
    for i in range(trials):
        res = run_asynchronous(
            con.topo,
            con.colors,
            SMPRule(),
            order=schedule.order,
            rng=schedule.row_rng(i) if schedule.order == "random" else None,
            target_color=con.k,
            max_sweeps=max_sweeps,
        )
        final[i] = res.final
        rounds[i] = res.rounds
        converged[i] = res.converged
        fixed_point_round[i] = (
            -1 if res.fixed_point_round is None else res.fixed_point_round
        )
        monotone[i] = bool(res.monotone)
    return BatchRunResult(
        final=final,
        rounds=rounds,
        converged=converged,
        fixed_point_round=fixed_point_round,
        monotone=monotone,
        target_color=con.k,
    )


class CyclicRule(Rule):
    """The cyclic cellular automaton on ``num_colors`` colors: a vertex
    of color ``c`` advances to ``c + 1 (mod K)`` when some neighbor
    already shows that color.

    Random colorings settle into waves that travel around the torus, so
    its cycles have period ``>= K`` — longer than the period-2 blinking
    the shipped rules produce — which pins cycle detection's modular
    arithmetic beyond the two-state case.
    """

    def __init__(self, num_colors: int = 3):
        self.num_colors = num_colors

    def step_batch(self, colors, topo, out=None):
        succ = (colors + 1) % self.num_colors
        advance = (colors[:, topo.neighbors] == succ[:, :, None]).any(axis=2)
        if out is None:
            out = np.empty_like(colors)
        np.copyto(out, np.where(advance, succ, colors))
        return out

    def update_vertex(self, current, neighbor_colors):
        succ = (current + 1) % self.num_colors
        return succ if succ in neighbor_colors else current

    def plan_token(self):
        return (self.num_colors,)
