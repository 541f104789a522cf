"""Asynchronous / sequential schedulers.

The paper analyzes the synchronous model, but dynamo research (and the
paper's future-work section on dynamic settings) also considers sequential
activation.  :func:`run_asynchronous` updates one vertex at a time using the
rule's scalar oracle; a *sweep* visits every vertex once in an order chosen
by the scheduler:

* ``"fixed"``   — ids ``0..N-1`` every sweep (deterministic),
* ``"random"``  — a fresh uniform permutation per sweep (requires ``rng``),
* an explicit sequence of vertex ids to use for every sweep.

Convergence is declared after a full sweep with no change — for monotone
dynamics that is a genuine fixed point of the synchronous rule as well.

**Batched schedules.**  Robustness experiments run the *same* initial
configuration under hundreds of independent random schedules; looping
:func:`run_asynchronous` drowns in scalar ``update_vertex`` calls.
:func:`run_asynchronous_batch` advances a ``(B, N)`` replica block — one
row per schedule — with one vectorized per-vertex update per sweep
position: at position ``p`` every live row updates *its own* ``p``-th
scheduled vertex in a single fused pass.  Rows are independent, so each
row's trajectory is **bitwise identical** to a scalar
:func:`run_asynchronous` run driven by the same per-row generator (pinned
in ``tests/test_engine_async_batch.py``).  Schedules are declared by
:class:`AsyncSchedule`, whose per-row :class:`numpy.random.SeedSequence`
spawns make every row's permutation stream independent of every other
row's sweep count — the property that makes batching (and sharding over a
pool) possible at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..rules.base import Rule, as_color_array
from ..topology.base import Topology
from .batch import BatchRunResult, as_color_batch
from .stencil import _definer, rule_spec
from .result import RunResult
from .runner import validate_round_cap

__all__ = ["AsyncSchedule", "run_asynchronous", "run_asynchronous_batch"]


def run_asynchronous(
    topo: Topology,
    initial: Sequence[int] | np.ndarray,
    rule: Rule,
    *,
    order: Union[str, Sequence[int]] = "fixed",
    rng: Optional[np.random.Generator] = None,
    max_sweeps: Optional[int] = None,
    target_color: Optional[int] = None,
    record: bool = False,
) -> RunResult:
    """Sequentially update vertices until a full quiet sweep or the cap.

    Rounds in the returned :class:`RunResult` count *sweeps*.  ``last_change``
    and ``first_change`` are sweep-granular.
    """
    colors = as_color_array(initial, topo.num_vertices).copy()
    n = topo.num_vertices
    max_sweeps = validate_round_cap(max_sweeps, topo, flag="max_sweeps")

    if isinstance(order, str):
        if order == "fixed":
            base_order: Optional[np.ndarray] = np.arange(n, dtype=np.int64)
        elif order == "random":
            if rng is None:
                raise ValueError("order='random' requires an explicit rng")
            base_order = None
        else:
            raise ValueError(f"unknown order {order!r}")
    else:
        base_order = np.asarray(order, dtype=np.int64)
        if sorted(base_order.tolist()) != list(range(n)):
            raise ValueError("explicit order must be a permutation of all vertex ids")

    last_change = np.zeros(n, dtype=np.int32)
    first_change = np.zeros(n, dtype=np.int32)
    monotone: Optional[bool] = True if target_color is not None else None
    trajectory = [colors.copy()] if record else []

    converged = False
    sweeps = 0
    for sweep in range(1, max_sweeps + 1):
        perm = rng.permutation(n) if base_order is None else base_order
        any_change = False
        for v in perm:
            v = int(v)
            nb = topo.neighbors[v, : topo.degrees[v]]
            new = rule.update_vertex(int(colors[v]), [int(colors[w]) for w in nb])
            if new != colors[v]:
                if monotone is True and colors[v] == target_color:
                    monotone = False
                colors[v] = new
                any_change = True
                last_change[v] = sweep
                if first_change[v] == 0:
                    first_change[v] = sweep
        sweeps = sweep
        if record:
            trajectory.append(colors.copy())
        if not any_change:
            converged = True
            sweeps = sweep - 1
            break

    return RunResult(
        final=colors.copy(),
        rounds=sweeps,
        converged=converged,
        cycle_length=1 if converged else None,
        fixed_point_round=sweeps if converged else None,
        last_change=last_change,
        first_change=first_change,
        monotone=monotone,
        target_color=target_color,
        trajectory=trajectory,
    )


# ----------------------------------------------------------------------
# batched schedules
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AsyncSchedule:
    """A batch of per-row sequential activation schedules.

    ``order="random"`` gives every row its own permutation stream: row
    ``i`` draws one fresh uniform permutation per sweep from
    ``default_rng(SeedSequence(list(seeds[i])))``.  Seeds are plain int
    tuples (hashable, picklable, JSON-friendly) so a schedule batch can
    be sharded across a pool and recorded in witness provenance; the
    canonical derivation is :meth:`derive`, which assigns row ``i`` the
    seed ``(root, start + i)`` — trials are reproducible individually,
    not just as a block.

    ``order="fixed"`` updates ids ``0..N-1`` every sweep for every row
    (no seeds; any batch size).
    """

    order: str = "random"
    #: one seed tuple per row (``order="random"`` only); each feeds a
    #: :class:`numpy.random.SeedSequence`
    seeds: Optional[Tuple[Tuple[int, ...], ...]] = None

    def __post_init__(self) -> None:
        if self.order not in ("fixed", "random"):
            raise ValueError(f"unknown schedule order {self.order!r}")
        if self.order == "random":
            if not self.seeds:
                raise ValueError(
                    "order='random' schedules need per-row seeds; build "
                    "one with AsyncSchedule.derive(root, count)"
                )
            object.__setattr__(
                self,
                "seeds",
                tuple(tuple(int(x) for x in s) for s in self.seeds),
            )
        elif self.seeds is not None:
            raise ValueError("order='fixed' schedules take no seeds")

    @classmethod
    def derive(cls, root: int, count: int, start: int = 0) -> "AsyncSchedule":
        """``count`` independent random schedules seeded ``(root, start+i)``."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return cls(
            order="random",
            seeds=tuple((int(root), int(start) + i) for i in range(count)),
        )

    @property
    def batch_size(self) -> Optional[int]:
        """Row count this schedule pins, or ``None`` (fixed order: any)."""
        return None if self.seeds is None else len(self.seeds)

    def generators(self) -> List[np.random.Generator]:
        """One independent :class:`~numpy.random.Generator` per row."""
        if self.seeds is None:
            raise ValueError("fixed-order schedules have no generators")
        return [
            np.random.default_rng(np.random.SeedSequence(list(s)))
            for s in self.seeds
        ]

    def row_rng(self, i: int) -> np.random.Generator:
        """The generator for row ``i`` alone (scalar-replay interop)."""
        if self.seeds is None:
            raise ValueError("fixed-order schedules have no generators")
        return np.random.default_rng(np.random.SeedSequence(list(self.seeds[i])))


#: a compiled per-vertex updater: ``(work (L, N), vs (L,)) -> new (L,)``
#: where row ``j`` updates vertex ``vs[j]`` against its own current state
_VertexUpdate = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _compile_vertex_update(
    rule: Rule, topo: Topology
) -> Tuple[_VertexUpdate, Optional[Callable[[np.ndarray], None]]]:
    """Vectorize ``rule.update_vertex`` across rows when provably safe.

    The async scheduler's semantics are *defined* by the scalar
    :meth:`~repro.rules.base.Rule.update_vertex`; a vectorized leg is
    only used when the rule's kernel spec is authoritative for it: the
    class providing ``update_vertex`` must not precede the one providing
    ``kernel_spec`` in the MRO (a subclass overriding the scalar oracle
    redefines the async dynamics, so it gets the row-loop fallback), and
    the spec kind must be one this compiler knows maps to the oracle
    bit for bit — ``"smp"`` (degree-4 sorted adoption) and
    ``"plurality"`` (a unique threshold-reaching color is necessarily
    the strict argmax of the histogram, for any integer threshold).

    Returns ``(update, validate)``: the vectorized legs also return the
    spec's palette validator (their histograms assume in-palette colors,
    which the scalar oracle does not; the driver validates the initial
    batch once — adoption only ever picks colors already present, so
    validity is invariant).  The row-loop fallback needs none.
    """
    spec = rule_spec(rule, topo)
    mro = type(rule).__mro__
    oracle_owner = _definer(rule, "update_vertex")
    spec_owner = _definer(rule, "kernel_spec")
    authoritative = (
        spec is not None
        and oracle_owner is not None
        and spec_owner is not None
        and mro.index(spec_owner) <= mro.index(oracle_owner)
    )
    nbtab = topo.neighbors

    if authoritative and spec.kind == "smp":
        # spec exists only on 4-regular topologies: no padding to mask
        def smp_update(work: np.ndarray, vs: np.ndarray) -> np.ndarray:
            r = np.arange(vs.shape[0])
            g = work[r[:, None], nbtab[vs]]  # (L, 4)
            s = np.sort(g, axis=1)
            s0, s1, s2, s3 = s[:, 0], s[:, 1], s[:, 2], s[:, 3]
            e1, e2, e3 = s0 == s1, s1 == s2, s2 == s3
            new = work[r, vs].copy()
            a2 = e3 & ~e2 & ~e1
            new[a2] = s2[a2]
            a1 = e2 & ~e1
            new[a1] = s1[a1]
            a0 = e1 & (e2 | ~e3)
            new[a0] = s0[a0]
            return new

        return smp_update, spec.validate

    if authoritative and spec.kind == "plurality":
        mask_tab = np.ascontiguousarray(nbtab >= 0)
        safe_tab = np.ascontiguousarray(np.where(mask_tab, nbtab, 0))
        thresholds = np.asarray(spec.thresholds, dtype=np.int64)
        degrees = (
            np.asarray(spec.degrees, dtype=np.int64)
            if spec.degrees is not None
            else mask_tab.sum(axis=1)
        )
        num_colors = int(spec.num_colors)

        def plurality_update(work: np.ndarray, vs: np.ndarray) -> np.ndarray:
            r = np.arange(vs.shape[0])
            g = work[r[:, None], safe_tab[vs]]  # (L, d)
            m = mask_tab[vs]
            counts = np.empty((vs.shape[0], num_colors), np.int64)
            for c in range(num_colors):
                counts[:, c] = ((g == c) & m).sum(axis=1)
            reaching = counts >= thresholds[vs, None]
            winner = np.argmax(counts, axis=1).astype(np.int32)
            adopt = (reaching.sum(axis=1) == 1) & (degrees[vs] > 0)
            return np.where(adopt, winner, work[r, vs]).astype(
                np.int32, copy=False
            )

        return plurality_update, spec.validate

    degrees = topo.degrees

    def row_loop(work: np.ndarray, vs: np.ndarray) -> np.ndarray:
        out = np.empty(vs.shape[0], dtype=np.int32)
        for j in range(vs.shape[0]):
            v = int(vs[j])
            nb = nbtab[v, : int(degrees[v])]
            out[j] = rule.update_vertex(
                int(work[j, v]), [int(work[j, w]) for w in nb]
            )
        return out

    return row_loop, None


def run_asynchronous_batch(
    topo: Topology,
    batch: Sequence | np.ndarray,
    rule: Rule,
    schedule: AsyncSchedule,
    *,
    max_sweeps: Optional[int] = None,
    target_color: Optional[int] = None,
) -> BatchRunResult:
    """Run every row of ``batch`` under its own sequential schedule.

    Row ``i`` evolves exactly as ``run_asynchronous(topo, batch[i], rule,
    order=schedule.order, rng=schedule.row_rng(i), ...)`` would — same
    permutation stream, same within-sweep state propagation, same
    convergence rule (one quiet sweep) — but all rows advance together,
    one fused per-vertex update per sweep position.  Rows that finish a
    quiet sweep retire from the working set (their generators stop
    drawing), so a batch costs (sweeps of the slowest row) x (live rows).

    Returns a :class:`~repro.engine.batch.BatchRunResult` whose
    ``rounds`` count sweeps.
    """
    colors = as_color_batch(batch, topo.num_vertices).copy()
    b, n = colors.shape
    if schedule.batch_size is not None and schedule.batch_size != b:
        raise ValueError(
            f"schedule pins {schedule.batch_size} rows but the batch "
            f"has {b}"
        )
    max_sweeps = validate_round_cap(max_sweeps, topo, flag="max_sweeps")

    update, validate = _compile_vertex_update(rule, topo)
    if validate is not None:
        validate(colors)
    rngs = schedule.generators() if schedule.order == "random" else None

    converged = np.zeros(b, dtype=bool)
    rounds = np.zeros(b, dtype=np.int32)
    fixed_point_round = np.full(b, -1, dtype=np.int32)
    monotone = np.ones(b, dtype=bool) if target_color is not None else None

    ids = np.arange(b)
    work = colors  # rebound to a compact copy on first retirement
    fixed_order = np.arange(n, dtype=np.int64)

    for sweep in range(1, max_sweeps + 1):
        if not ids.size:
            break
        live = ids.size
        if rngs is None:
            perms = np.broadcast_to(fixed_order, (live, n))
        else:
            perms = np.empty((live, n), dtype=np.int64)
            for j in range(live):
                perms[j] = rngs[j].permutation(n)
        r = np.arange(live)
        any_change = np.zeros(live, dtype=bool)
        for p in range(n):
            vs = perms[:, p]
            cur = work[r, vs]
            new = update(work, vs)
            ch = new != cur
            if not ch.any():
                continue
            if monotone is not None:
                flips = ch & (cur == target_color)
                if flips.any():
                    monotone[ids[flips]] = False
            work[r[ch], vs[ch]] = new[ch]
            any_change |= ch
        rounds[ids] = np.where(any_change, sweep, sweep - 1)
        if not any_change.all():
            done = ids[~any_change]
            converged[done] = True
            fixed_point_round[done] = sweep - 1
            colors[done] = work[~any_change]
            ids = ids[any_change]
            work = work[any_change]  # fancy indexing copies out
            if rngs is not None:
                rngs = [g for g, k in zip(rngs, any_change.tolist()) if k]

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
