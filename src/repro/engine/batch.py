"""Batched multi-replica simulation driver — any rule, any topology.

Census, sweep, and lower-bound-search workloads run the *same* dynamics
over thousands of independent initial configurations that share one
topology.  Doing that one :func:`~repro.engine.runner.run_synchronous`
call at a time drowns in per-call Python overhead, so this driver
vectorizes *across replicas*: a batch is a ``(B, N)`` int32 array, one
row per configuration, advanced in lockstep by the rule's
:meth:`~repro.rules.base.Rule.step_batch` kernel (``colors[:, neighbors]``
gathers have shape ``(B, N, d)`` — one fused numpy pass per round for the
whole batch).

Semantics mirror :func:`~repro.engine.runner.run_synchronous` row for row:

* **fixed-point retirement** — a row whose state did not change this round
  is converged; it is dropped from the live set so a batch costs
  (rounds of the slowest member) x (live rows) work, not B x cap;
* **cycle detection** — synchronous deterministic dynamics are eventually
  periodic; each live row's state is digested every round (two independent
  64-bit polynomial hashes computed vectorized over the batch) and a row
  whose digest repeats retires with the cycle length reported, exactly as
  the scalar runner's blake2b table does;
* **frozen / irreversible vertices** — stubborn-entity pinning and the
  Chang-Lyuu irreversible variant, applied batch-wide;
* **monotonicity monitoring** w.r.t. a target color (Definition 3).

The generic :meth:`step_batch` falls back to looping the rule's scalar
:meth:`step` over rows, so *every* rule works with this driver from day
one; the five shipped rules override it with flat vectorized kernels.

How a round actually executes is delegated to a pluggable **kernel
backend** (:mod:`repro.engine.backends`): the default ``stencil`` backend
compiles each rule's declarative kernel spec into a zero-allocation
NumPy plan and ``reference`` runs the rule's own ``step_batch``.  Backends
are bitwise-interchangeable (the parity matrix in
``tests/test_engine_backends.py`` pins it), so the choice never affects
results, seeds, or witness-database cache keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .. import obs
from ..rules.base import Rule
from ..topology.base import Topology
from .backends import KernelBackend
from .plans import ExecutionPlan, resolve_plan
from .result import RunResult
from .runner import parse_frozen, validate_round_cap

__all__ = ["BatchRunResult", "DYNAMICS_VERSION", "run_batch", "as_color_batch"]

#: version of the *observable dynamics* (rule kernels + engine update
#: semantics).  Bump whenever a change alters what any configuration
#: converges to — witness-database cache definitions embed this value,
#: so bumping it invalidates every cached search/census cell and forces
#: recomputation under the new dynamics (stored witnesses stay and are
#: re-checked by ``witness verify``).  Pure performance work that keeps
#: the engine-parity tests bitwise-green does not bump it.
DYNAMICS_VERSION = 1


def as_color_batch(batch: Sequence | np.ndarray, num_vertices: int) -> np.ndarray:
    """Validate and convert a replica block to the canonical ``(B, N)`` int32 array."""
    arr = np.asarray(batch, dtype=np.int32)
    if arr.ndim != 2 or arr.shape[1] != num_vertices:
        raise ValueError(
            f"expected a (B, {num_vertices}) batch, got shape {arr.shape}"
        )
    if np.any(arr < 0):
        raise ValueError("colors must be non-negative integers")
    return np.ascontiguousarray(arr)


def _digest_rows(colors: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """128-bit polynomial digest of each row, vectorized over the batch.

    ``mult`` is a ``(2, N)`` uint64 array of fixed odd multipliers; the
    digest of a row is the pair of dot products mod 2**64.  Unlike the
    scalar runner's blake2b this is not collision-*resistant*, but two
    independent 64-bit channels make an accidental repeat-state collision
    astronomically unlikely for simulation workloads, and the whole batch
    hashes in two fused numpy reductions.
    """
    c = colors.astype(np.uint64, copy=False)
    with np.errstate(over="ignore"):
        h = c[:, None, :] * mult[None, :, :]
    return h.sum(axis=2, dtype=np.uint64)  # (B, 2), wrapping mod 2**64


def _digest_multipliers(num_vertices: int) -> np.ndarray:
    """Deterministic odd uint64 multipliers (seeded by N only)."""
    # plain-int arithmetic: uint64 + int promotes to float64 on numpy 1.x,
    # which default_rng rejects as a seed
    rng = np.random.default_rng(0x9E3779B97F4A7C15 + num_vertices)
    return rng.integers(1, 2**63, size=(2, num_vertices), dtype=np.uint64) * 2 + 1


@dataclass
class BatchRunResult:
    """Per-row outcomes of a batched run; the vector analogue of
    :class:`~repro.engine.result.RunResult`."""

    #: final state of each replica, ``(B, N)``
    final: np.ndarray
    #: rounds executed per row (a converged row counts its last effective round)
    rounds: np.ndarray
    #: row reached a fixed point within the cap
    converged: np.ndarray
    #: detected cycle length per row (1 == fixed point, 0 == undetected)
    cycle_length: np.ndarray
    #: round the fixed point was first reached (-1 when not converged)
    fixed_point_round: np.ndarray
    #: row was monotone w.r.t. ``target_color`` (None when no target given)
    monotone: Optional[np.ndarray] = None
    #: target color the run was asked to watch (as passed in)
    target_color: Optional[int] = None

    @property
    def batch_size(self) -> int:
        return int(self.final.shape[0])

    @property
    def k_monochromatic(self) -> np.ndarray:
        """Rows that converged to all-``target_color`` (the dynamo test)."""
        if self.target_color is None:
            raise ValueError("run was executed without a target_color")
        return self.converged & (self.final == self.target_color).all(axis=1)

    def row(self, b: int) -> RunResult:
        """View one row as a scalar :class:`RunResult` (interop helper)."""
        cyc = int(self.cycle_length[b])
        fpr = int(self.fixed_point_round[b])
        return RunResult(
            final=self.final[b].copy(),
            rounds=int(self.rounds[b]),
            converged=bool(self.converged[b]),
            cycle_length=cyc if cyc > 0 else None,
            fixed_point_round=fpr if fpr >= 0 else None,
            monotone=None if self.monotone is None else bool(self.monotone[b]),
            target_color=self.target_color,
        )


def run_batch(
    topo: Topology,
    batch: Sequence | np.ndarray,
    rule: Rule,
    *,
    max_rounds: Optional[int] = None,
    target_color: Optional[int] = None,
    frozen: Optional[Iterable[int]] = None,
    irreversible_color: Optional[int] = None,
    detect_cycles: bool = True,
    backend: Union[str, KernelBackend, None] = None,
    plan: Optional[ExecutionPlan] = None,
    schedule: Optional["AsyncSchedule"] = None,
) -> BatchRunResult:
    """Run every row of ``batch`` to fixed point, cycle, or round cap.

    Parameters mirror :func:`~repro.engine.runner.run_synchronous`; the
    returned arrays are indexed by row.  ``detect_cycles=False`` lets
    cycling rows run to the cap (cheaper for searches that only consume
    converged outcomes).  ``backend`` selects how rule kernels execute
    (a name, a :class:`~repro.engine.backends.KernelBackend` instance,
    or ``None``/``"auto"`` for the default) and ``plan`` selects the
    :class:`~repro.engine.plans.ExecutionPlan` (stepper caching +
    adaptive round escalation; ``None`` uses the default plan with both
    enabled) — backends and plans are bitwise-interchangeable, so they
    only affect speed.

    ``schedule`` switches the *update model*: instead of synchronous
    lockstep rounds, each row evolves under its own sequential
    activation schedule (see :class:`~repro.engine.schedulers.
    AsyncSchedule`), with ``max_rounds`` counting sweeps.  Schedule mode
    delegates to :func:`~repro.engine.schedulers.run_asynchronous_batch`
    — the backend name is still validated (a typo should not pass
    silently), but kernels are compiled by the scheduler's own
    vectorizer, and the frozen / irreversible / cycle-detection features
    of the synchronous engine are not available.

    Execution walks a *compact* working set: retired rows leave it, so a
    batch costs (rounds of the slowest member) x (live rows).  Under an
    escalating plan, ``detect_cycles=False`` runs additionally arm
    shadow cycle detection once the plan's initial budget is spent:
    a row whose state digest repeats is snapshot-verified over one
    period and, if genuinely cycling, retires with its state
    fast-forwarded to the cap — bitwise what full simulation would
    report, at a fraction of the rounds (see :mod:`repro.engine.plans`).
    """
    if schedule is not None:
        if frozen is not None or irreversible_color is not None:
            raise ValueError(
                "frozen / irreversible vertices are a synchronous-engine "
                "feature; schedule mode does not support them"
            )
        from .backends import select_backend
        from .schedulers import run_asynchronous_batch

        select_backend(backend)  # validate the name, nothing else
        return run_asynchronous_batch(
            topo,
            batch,
            rule,
            schedule,
            max_sweeps=max_rounds,
            target_color=target_color,
        )
    colors = as_color_batch(batch, topo.num_vertices).copy()
    b = colors.shape[0]
    plan = resolve_plan(plan)
    stepper = plan.stepper_for(rule, topo, b, backend)
    max_rounds = validate_round_cap(max_rounds, topo)
    n = topo.num_vertices

    frozen_idx = parse_frozen(frozen, topo.num_vertices)
    frozen_values = colors[:, frozen_idx].copy() if frozen_idx is not None else None

    converged = np.zeros(b, dtype=bool)
    rounds = np.zeros(b, dtype=np.int32)
    cycle_length = np.zeros(b, dtype=np.int32)
    fixed_point_round = np.full(b, -1, dtype=np.int32)
    monotone = np.ones(b, dtype=bool) if target_color is not None else None

    # Compact working set: ``work[j]`` is the current state of original
    # row ``ids[j]``.  A retiring row's final state is written to
    # ``colors`` as it leaves; survivors flush at loop exit.
    ids = np.arange(b)
    work = colors  # rebound to a fresh compact array every round

    mult: Optional[np.ndarray] = None
    seen: Optional[list] = None  # per-work-row digest dicts (real detection)
    if detect_cycles:
        mult = _digest_multipliers(n)
        d0 = _digest_rows(work, mult)
        seen = [{(int(d0[i, 0]), int(d0[i, 1])): 0} for i in range(b)]

    # Shadow detection (escalation): armed at the plan's first stage
    # boundary for detect_cycles=False runs, re-armed (flushed) at each
    # later boundary so its memory is bounded by one stage's rounds.
    budgets = plan.budgets(topo, max_rounds)
    shadow_seen: Optional[list] = None  # per-work-row digest dicts
    pending: Optional[list] = None  # per-work-row [t0, L, e, snap, final]
    boundary_iter = (
        iter(budgets[:-1]) if not detect_cycles and len(budgets) > 1 else iter(())
    )
    next_boundary = next(boundary_iter, None)

    for t in range(1, max_rounds + 1):
        if not ids.size:
            break
        new = stepper(work)
        if frozen_idx is not None and frozen_idx.size:
            new[:, frozen_idx] = frozen_values[ids]
        if irreversible_color is not None:
            np.copyto(new, irreversible_color, where=work == irreversible_color)
        changed = new != work
        changed_rows = changed.any(axis=1)
        rounds[ids] = np.where(changed_rows, t, t - 1)
        if monotone is not None:
            left = (changed & (work == target_color)).any(axis=1)
            monotone[ids[left]] = False
        if changed_rows.all():
            work = new.copy()  # the scratch is reused by the next call
        else:
            # fixed-point retirement: the state did not change, so the
            # pre-step row is already the final state
            done = ids[~changed_rows]
            converged[done] = True
            cycle_length[done] = 1
            fixed_point_round[done] = t - 1
            colors[done] = work[~changed_rows]
            ids = ids[changed_rows]
            work = new[changed_rows]  # copies out of the stepper scratch
            keep = changed_rows.tolist()
            if seen is not None:
                seen = [s for s, k in zip(seen, keep) if k]
            if shadow_seen is not None:
                shadow_seen = [s for s, k in zip(shadow_seen, keep) if k]
                pending = [p for p, k in zip(pending, keep) if k]
        retired: list = []
        if seen is not None and ids.size:
            # Digests are computed vectorized over the batch; the
            # remaining per-row work is one dict lookup each (tolist()
            # converts the whole block to Python ints in one C pass).
            # Per-row dicts keep detection O(1) per round regardless of
            # how long a run gets, unlike an all-history comparison
            # matrix whose per-round cost grows with the round number.
            digests = _digest_rows(work, mult).tolist()
            for j in range(len(seen)):
                key = (digests[j][0], digests[j][1])
                prev = seen[j].get(key)
                if prev is not None:
                    i = ids[j]
                    cycle_length[i] = t - prev
                    colors[i] = work[j]
                    retired.append(j)
                else:
                    seen[j][key] = t
        elif shadow_seen is not None and ids.size:
            digests = _digest_rows(work, mult).tolist()
            for j in range(len(shadow_seen)):
                p = pending[j]
                if p is not None:
                    # verification in flight: one period after the
                    # suspected repeat, compare states exactly — the
                    # digest is a trigger, never a verdict
                    t0, period, offset, snap = p[0], p[1], p[2], p[3]
                    k = t - t0
                    if k == offset:
                        p[4] = work[j].copy()
                    if k == period:
                        if np.array_equal(work[j], snap):
                            # genuine cycle: the row changes every round
                            # through the cap, so its final state is the
                            # cycle state (cap - t0) mod period past the
                            # snapshot and its round count is the cap —
                            # bitwise what full simulation reports
                            i = ids[j]
                            colors[i] = snap if offset == 0 else p[4]
                            rounds[i] = max_rounds
                            retired.append(j)
                            obs.count("plan.shadow-cycle-retire")
                        else:
                            pending[j] = None  # digest collision: resume
                    continue
                key = (digests[j][0], digests[j][1])
                prev = shadow_seen[j].get(key)
                if prev is not None:
                    period = t - prev
                    pending[j] = [
                        t, period, (max_rounds - t) % period, work[j].copy(), None,
                    ]
                else:
                    shadow_seen[j][key] = t
        if retired:
            keep2 = np.ones(ids.size, dtype=bool)
            keep2[retired] = False
            ids = ids[keep2]
            work = work[keep2]
            keep = keep2.tolist()
            if seen is not None:
                seen = [s for s, k in zip(seen, keep) if k]
            if shadow_seen is not None:
                shadow_seen = [s for s, k in zip(shadow_seen, keep) if k]
                pending = [p for p, k in zip(pending, keep) if k]
        if next_boundary is not None and t == next_boundary:
            # stage boundary: (re)arm shadow detection over the
            # survivors; in-flight verifications carry across (their
            # snapshots are exact, not digest-dependent)
            next_boundary = next(boundary_iter, None)
            if ids.size:
                obs.count("plan.escalation")
                if mult is None:
                    mult = _digest_multipliers(n)
                d = _digest_rows(work, mult)
                shadow_seen = [
                    {(int(d[j, 0]), int(d[j, 1])): t} for j in range(ids.size)
                ]
                if pending is None:
                    pending = [None] * ids.size

    if ids.size and work is not colors:
        colors[ids] = work

    return BatchRunResult(
        final=colors,
        rounds=rounds,
        converged=converged,
        cycle_length=cycle_length,
        fixed_point_round=fixed_point_round,
        monotone=monotone,
        target_color=target_color,
    )
