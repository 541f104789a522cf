"""Batched multi-replica simulation driver — any rule, any topology.

Census, sweep, and lower-bound-search workloads run the *same* dynamics
over thousands of independent initial configurations that share one
topology.  Doing that one :func:`~repro.engine.runner.run_synchronous`
call at a time drowns in per-call Python overhead, so this driver
vectorizes *across replicas*: a batch is a ``(B, N)`` int32 array, one
row per configuration, advanced in lockstep one round at a time.

Semantics mirror :func:`~repro.engine.runner.run_synchronous` with
``detect_cycles=False`` row for row:

* **fixed-point retirement** — a row whose state did not change this round
  is converged; it is dropped from the live set so a batch costs
  (rounds of the slowest member) x (live rows) work, not B x cap;
* **Brent retirement** — synchronous deterministic dynamics are
  eventually periodic; a cycling row is found by lockstep Brent
  snapshots and fast-forwarded to the cap's state, so it reports what
  stepping it to the cap would;
* **monotonicity monitoring** w.r.t. a target color (Definition 3).

Whether a row converged, became k-monochromatic and stayed monotone
does not depend on where a cycling row stops: by its retirement round
it has made every transition of its cycle.  Only a cycling row's
``rounds`` and final state do; a caller that needs the first repeat of
one configuration runs :func:`~repro.engine.runner.run_synchronous`.

A round runs one **compiled plan**
(:func:`~repro.engine.stencil.compile_stepper`, served by the stepper
registry of :mod:`repro.engine.plans`): each rule's declarative kernel
spec becomes a zero-allocation NumPy plan over per-slot ``(B, N)``
gathers, and a rule without one runs its own ``step_batch`` (the
generic one loops the rule's scalar ``step`` over rows, so every rule
works here).

Two loops drive the plans.  The **int32 loop** serves every rule.
The **packed loop** serves every SMP run — the census scans, the random
dynamo search, the sweeps and the complement DFS leaf blocks — and every
ceil(d/2) plurality run on a torus, whenever the registry's raw stepper
is the compiled SMP plan: the batch is validated once, packed into bit
planes of 64 replicas per ``uint64`` word
(:class:`~repro.engine.stencil.PackedSMP`) and stays packed, every
per-row check becomes a reduction over words, and rows are unpacked
only as they leave.  The rules' own kernels
(``tests/helpers.py:rule_kernel_only``) always take the int32 loop.

Both kernels are bitwise-identical to ``step_batch`` and both loops
retire every row at the round the other would, so neither affects
results, seeds, or witness-database cache keys: the parity matrix in
``tests/test_engine_backends.py``, the oracle matrix in
``tests/test_engine_plans.py`` and ``tests/test_engine_packed.py`` pin
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..rules.base import Rule
from ..topology.base import Topology
from .plans import instrumented_stepper, raw_stepper_for
from .result import RunResult
from .runner import validate_round_cap
from .stencil import WORD_BITS, PackedSMP, packed_smp, rows_to_words, words_to_rows

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
        """View one row as a scalar :class:`RunResult` (interop helper):
        what :func:`~repro.engine.runner.run_synchronous` with
        ``detect_cycles=False`` reports for it."""
        converged = bool(self.converged[b])
        fpr = int(self.fixed_point_round[b])
        return RunResult(
            final=self.final[b].copy(),
            rounds=int(self.rounds[b]),
            converged=converged,
            cycle_length=1 if converged else None,
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
) -> BatchRunResult:
    """Run every row of ``batch`` to fixed point or round cap.

    Parameters mirror :func:`~repro.engine.runner.run_synchronous`; the
    returned arrays are indexed by row.  The compiled stepper comes from
    the process-local registry of :mod:`repro.engine.plans`, so repeated
    calls on one ``(rule, topology)`` compile once, whatever their
    batch widths.  Sequential schedules run through
    :func:`~repro.engine.schedulers.run_asynchronous_batch`, and the
    irreversible variant through
    :func:`~repro.engine.runner.run_synchronous`.

    Execution walks a *compact* working set: retired rows leave it, so a
    batch costs (rounds of the slowest member) x (live rows), and every
    per-row bookkeeping array is compacted with it — no step of a round
    loops over rows in Python.  Cycling rows are found by lockstep Brent
    detection from round 1: a row that returns to its snapshot (retaken
    at rounds 1, 2, 4, ...) has period exactly ``t - snap_t`` and
    retires at the round congruent to the cap, in the cap's state with
    ``rounds`` = the cap.  The verdict compares whole states and a
    cycling row changes every round, so every field is bitwise what
    stepping the row to the cap would report (per-row
    :func:`~repro.engine.runner.run_synchronous` with
    ``detect_cycles=False`` is that oracle), at a fraction of the rounds.
    An SMP run, and a ceil(d/2) plurality run on a torus, steps packed
    words of 64 rows on the compiled SMP plan's bit-sliced kernel (see
    the module docstring); the results are the same.
    """
    colors = as_color_batch(batch, topo.num_vertices).copy()
    b = colors.shape[0]
    raw = raw_stepper_for(rule, topo, b)
    max_rounds = validate_round_cap(max_rounds, topo)
    packed = packed_smp(raw)
    if packed is not None:
        return _run_packed(packed, colors, max_rounds, target_color)
    stepper = instrumented_stepper(raw)

    converged = np.zeros(b, dtype=bool)
    rounds = np.zeros(b, dtype=np.int32)
    fixed_point_round = np.full(b, -1, dtype=np.int32)
    monotone = np.ones(b, dtype=bool) if target_color is not None else None

    # Compact working set: ``work[j]`` is the current state of original
    # row ``ids[j]``.  A retiring row's final state is written to
    # ``colors`` as it leaves; survivors flush at loop exit.  ``due``
    # is compacted together with them.
    ids = np.arange(b)
    work = colors  # rebound to a fresh compact array every round

    # lockstep Brent detection: one snapshot per row, retaken at rounds
    # 1, 2, 4, 8, ...; a row that returns to its snapshot has period
    # exactly ``t - snap_t`` and is due to retire at the round
    # congruent to the cap modulo that period
    snap: Optional[np.ndarray] = None
    snap_t = 0
    due = np.full(b, max_rounds + 1)  # > max_rounds: no deadline yet

    for t in range(1, max_rounds + 1):
        if not ids.size:
            break
        new = stepper(work)
        changed = new != work
        moved = changed.any(axis=1)
        rounds[ids] = np.where(moved, t, t - 1)
        if monotone is not None:
            left = (changed & (work == target_color)).any(axis=1)
            monotone[ids[left]] = False
        # fixed-point retirement: the state did not change, so the
        # pre-step row is already the final state
        leave = ~moved
        if leave.any():
            done = ids[leave]
            converged[done] = True
            fixed_point_round[done] = t - 1
            colors[done] = work[leave]
        if snap is not None:
            hit = moved & (due > max_rounds) & (new == snap).all(axis=1)
            due[hit] = t + (max_rounds - t) % (t - snap_t)
        ready = due == t
        if ready.any():
            # genuine cycle: the row changes every round through the cap
            # and is now in the cap's state, so this is bitwise what
            # full simulation to the cap reports
            colors[ids[ready]] = new[ready]
            rounds[ids[ready]] = max_rounds
            leave |= ready
            obs.count("plan.shadow-cycle-retire", int(ready.sum()))
        if leave.any():
            keep = ~leave
            ids = ids[keep]
            work = new[keep]  # copies out of the stepper scratch
            due = due[keep]
            if snap is not None:
                snap = snap[keep]
        else:
            work = new.copy()  # the scratch is reused by the next call
        if t & (t - 1) == 0:
            snap, snap_t = work, t  # ``work`` is rebound, never mutated

    if ids.size and work is not colors:
        colors[ids] = work

    return BatchRunResult(
        final=colors,
        rounds=rounds,
        converged=converged,
        fixed_point_round=fixed_point_round,
        monotone=monotone,
        target_color=target_color,
    )


def _run_packed(
    kernel: PackedSMP,
    colors: np.ndarray,
    max_rounds: int,
    target_color: Optional[int],
) -> BatchRunResult:
    """:func:`run_batch` on the bit-sliced SMP kernel: the loop of the
    int32 path, with every per-row check a reduction over packed words.

    Per-row state is kept over the bit slots of the live words: ``ids``
    maps a slot to its row, ``alive`` (one bit per slot, packed) marks
    rows still being decided, ``pending`` the alive rows with no Brent
    deadline yet.  Padding slots of the last word are never alive.  A
    row on a fixed point keeps its state, so it is read once, when its
    word leaves or at loop exit; a row retired by its Brent deadline
    keeps cycling, so its own words are unpacked at that round.  A word
    leaves once none of its 64 rows is alive.  The retirement rounds and
    the step count are those of the int32 loop, so every field matches.
    """
    b = colors.shape[0]
    rounds = np.full(b, max_rounds, dtype=np.int32)
    converged = np.zeros(b, dtype=bool)
    fixed_point_round = np.full(b, -1, dtype=np.int32)
    monotone = np.ones(b, dtype=bool) if target_color is not None else None
    result = BatchRunResult(
        final=colors,
        rounds=rounds,
        converged=converged,
        fixed_point_round=fixed_point_round,
        monotone=monotone,
        target_color=target_color,
    )
    if not b or not max_rounds:
        return result

    step = instrumented_stepper(kernel)
    if kernel.validate is not None:
        kernel.validate(colors)  # once: colours only spread to neighbours
    x = kernel.pack(colors)
    planes, _, w = x.shape
    ids = np.arange(w * WORD_BITS)
    alive = rows_to_words(ids < b)
    pending = alive.copy()
    fixed = np.zeros(ids.size, dtype=bool)  # retired on a fixed point
    due = np.full(ids.size, max_rounds + 1)  # > max_rounds: no deadline yet
    snap: Optional[np.ndarray] = None
    snap_t = 0
    # monotonicity watch: only a colour the planes can hold is ever seen
    watch = monotone is not None and 0 <= int(target_color) < 1 << planes
    if watch:
        # all-ones planes where the target colour has a 1 bit
        kbits = np.array(
            [-((int(target_color) >> p) & 1) for p in range(planes)], np.int64
        ).astype(np.uint64)[:, None, None]
        not_k = np.bitwise_or.reduce(x ^ kbits, axis=0)

    # fixed-point states wait here as packed words and are unpacked
    # once, at exit: (planes, slots to write, their row ids) per piece
    held: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def hold(state: np.ndarray, rows: np.ndarray, ids: np.ndarray) -> None:
        """Keep the packed words of ``state`` that hold any of ``rows``."""
        per_word = rows.reshape(-1, WORD_BITS)
        words = per_word.any(axis=1)
        if words.any():
            held.append((
                state[:, :, words],
                per_word[words].ravel(),
                ids.reshape(-1, WORD_BITS)[words].ravel(),
            ))

    for t in range(1, max_rounds + 1):
        if not alive.any():
            break
        new = step(x)
        diff = new ^ x
        if watch:
            changed = np.bitwise_or.reduce(diff, axis=0)  # (N, W)
            moved = np.bitwise_or.reduce(changed, axis=0)
            # a vertex left the target colour: it was k and changed
            left = np.bitwise_or.reduce(changed & ~not_k, axis=0) & alive
            if left.any():
                monotone[ids[words_to_rows(left)]] = False
            not_k = np.bitwise_or.reduce(new ^ kbits, axis=0)
        else:
            moved = np.bitwise_or.reduce(diff.reshape(-1, w), axis=0)
        leave = alive & ~moved
        if leave.any():
            # fixed-point retirement: the pre-step state is final
            rows = words_to_rows(leave)
            done = ids[rows]
            converged[done] = True
            fixed_point_round[done] = t - 1
            rounds[done] = t - 1
            fixed |= rows
            alive &= moved
            pending &= moved
        if snap is not None and pending.any():
            same = ~np.bitwise_or.reduce((new ^ snap).reshape(-1, w), axis=0)
            hit = pending & same
            if hit.any():
                due[words_to_rows(hit)] = t + (max_rounds - t) % (t - snap_t)
                pending &= ~hit
        ready = due == t
        if ready.any():
            # genuine cycle, now in the cap's state: read only the
            # words holding these rows
            sel = ready.reshape(w, WORD_BITS)
            words = sel.any(axis=1)
            colors[ids[ready]] = kernel.unpack(new[:, :, words], sel[words].ravel())
            alive &= ~rows_to_words(ready)
            obs.count("plan.shadow-cycle-retire", int(ready.sum()))
        x = new
        if t & (t - 1) == 0:
            snap, snap_t = new.copy(), t
        dead = alive == 0
        if dead.any():
            hold(x, fixed & np.repeat(dead, WORD_BITS), ids)
            keep = ~dead
            w = int(keep.sum())
            x = np.ascontiguousarray(x[:, :, keep])
            if snap is not None:
                snap = np.ascontiguousarray(snap[:, :, keep])
            if watch:
                not_k = np.ascontiguousarray(not_k[:, keep])
            alive, pending = alive[keep], pending[keep]
            rows = np.repeat(keep, WORD_BITS)
            ids, fixed, due = ids[rows], fixed[rows], due[rows]

    if w:
        hold(x, words_to_rows(alive) | fixed, ids)
    if held:
        planes_held, rows_held, ids_held = zip(*held)
        rows = np.concatenate(rows_held)
        state = np.concatenate(planes_held, axis=2)
        colors[np.concatenate(ids_held)[rows]] = kernel.unpack(state, rows)
    return result

