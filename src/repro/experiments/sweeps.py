"""Parallel parameter-sweep drivers, sharded across processes.

Every figure/theorem reproduction boils down to "run a construction over a
grid of (kind, m, n) points and collect scalars".  :func:`sweep_rounds`
does that, fanning its points out over the shared sharding layer
(:func:`repro.engine.parallel.run_sharded` — one process per point, each
worker re-building its construction locally so nothing large is pickled)
and reducing into a numpy record array.

A second driver, :func:`convergence_sweep`, measures *statistical*
behaviour instead of constructions: at every grid point it pushes blocks
of random replicas through the batched engine
(:func:`repro.engine.batch.run_batch`) under any registered rule and
reduces per-row outcomes (convergence/monochromatic fractions, round
statistics) into one record per point.  Two layers of parallelism
compose here: batching across replicas saturates numpy *within* a
process, and the workload shards into ``(grid point x replica block)``
units of ``shard_size`` replicas that fan out over ``processes`` pool
workers.  Shard ``i`` of point ``(kind, m, n)`` draws from
``SeedSequence([seed, kind_tag, m, n, i])`` and partials reduce in shard
order, so records are **bitwise-identical at any process count**; they
do depend on ``seed`` and ``shard_size``, which are part of the
experiment definition.

Set ``processes=0`` to run inline (deterministic profiles, debugging,
or platforms without fork); ``None`` uses one worker per core.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..engine.context import ExecutionSettings
from ..engine.parallel import (
    DEFAULT_SHARD_RETRIES,
    run_sharded,
    shard_counts,
    shard_seed,
    validate_positive,
    validate_processes,
)
from ..io.ledger import LedgerScope, open_ledger

__all__ = [
    "SweepPoint",
    "sweep_rounds",
    "convergence_sweep",
    "square_points",
    "rect_points",
]

SweepPoint = Tuple[str, int, int]

#: dtype of a sweep record: one row per (kind, m, n) point
SWEEP_DTYPE = np.dtype(
    [
        ("kind", "U16"),
        ("m", np.int64),
        ("n", np.int64),
        ("seed_size", np.int64),
        ("lower_bound", np.int64),
        ("rounds", np.int64),
        ("paper_rounds", np.int64),  # -1 when the paper states no formula
        ("empirical_rounds", np.int64),  # -1 when parity leaves it open
        ("monotone", np.bool_),
        ("is_dynamo", np.bool_),
        ("num_colors", np.int64),
    ]
)


def _run_point(point: SweepPoint) -> tuple:
    # Imported lazily so worker processes pay the import once each.
    from ..core.constructions import build_minimum_dynamo
    from ..core.verify import verify_construction

    kind, m, n = point
    con = build_minimum_dynamo(kind, m, n)
    rep = verify_construction(con, check_conditions=False)
    return (
        kind,
        m,
        n,
        con.seed_size,
        con.size_lower_bound if con.size_lower_bound is not None else -1,
        rep.rounds if rep.rounds is not None else -1,
        con.predicted_rounds if con.predicted_rounds is not None else -1,
        con.empirical_rounds if con.empirical_rounds is not None else -1,
        rep.monotone,
        rep.is_dynamo,
        con.num_colors,
    )


def sweep_rounds(
    points: Iterable[SweepPoint], processes: Optional[int] = None
) -> np.ndarray:
    """Run the minimum-dynamo construction at every point; return records.

    ``processes=None`` uses one worker per core; ``0`` runs inline.  The
    construction at each point is deterministic, so records never depend
    on the process count.
    """
    pts: List[SweepPoint] = list(points)
    with obs.span("phase", key="sweep-rounds", level="basic", points=len(pts)):
        rows = run_sharded(_run_point, pts, processes=processes)
    out = np.empty(len(rows), dtype=SWEEP_DTYPE)
    for i, row in enumerate(rows):
        out[i] = row
    return out


#: dtype of a convergence-sweep record: one row per (kind, m, n) point
CONVERGENCE_DTYPE = np.dtype(
    [
        ("kind", "U16"),
        ("m", np.int64),
        ("n", np.int64),
        ("rule", "U24"),
        ("replicas", np.int64),
        ("converged_frac", np.float64),
        ("monochromatic_frac", np.float64),
        ("monotone_frac", np.float64),
        ("mean_rounds", np.float64),
        ("max_rounds", np.int64),
    ]
)


def _convergence_shard(shard: tuple) -> Tuple[int, int, int, int, int]:
    """Pool worker: one replica block of one grid point.

    Rebuilds topology and rule locally from the shard's small picklable
    description, derives its RNG from the shard *coordinates* (never
    from execution order), and returns integer partials — exact to
    reduce in any grouping.
    """
    from ..engine.batch import run_batch
    from ..rules import make_rule, replica_palette
    from ..topology.tori import make_torus

    (kind, m, n, rule_name, num_colors, count, shard_idx, seed, batch_size,
     max_rounds) = shard
    topo = make_torus(kind, m, n)
    rule = make_rule(rule_name, num_colors=num_colors)
    low, palette, target = replica_palette(rule_name, num_colors)
    # a rule that knows its own sound convergence bound (e.g. the
    # ordered rule's color-sum potential) overrides the generic cap
    cap = max_rounds
    if cap is None and hasattr(rule, "max_rounds"):
        cap = rule.max_rounds(topo)
    rng = np.random.default_rng(shard_seed(seed, kind, m, n, shard_idx))
    converged = monochromatic = monotone = 0
    rounds_sum = 0
    rounds_max = 0
    remaining = count
    while remaining > 0:
        b = min(batch_size, remaining)
        remaining -= b
        batch = rng.integers(
            low, low + palette, size=(b, topo.num_vertices)
        ).astype(np.int32)
        res = run_batch(
            topo, batch, rule, max_rounds=cap, target_color=target,
        )
        converged += int(res.converged.sum())
        monochromatic += int(res.k_monochromatic.sum())
        monotone += int(res.monotone.sum())
        if res.converged.any():
            rounds_sum += int(res.rounds[res.converged].sum())
            rounds_max = max(rounds_max, int(res.rounds[res.converged].max()))
    return (converged, monochromatic, monotone, rounds_sum, rounds_max)


def convergence_sweep(
    points: Iterable[SweepPoint],
    rule_name: str = "smp",
    *,
    replicas: int = 256,
    num_colors: int = 4,
    max_rounds: Optional[int] = None,
    seed: int = 0xD1CE,
    settings: ExecutionSettings = ExecutionSettings(),
) -> np.ndarray:
    """Random-replica convergence statistics per grid point, sharded.

    ``settings`` (an :class:`~repro.engine.context.ExecutionSettings`)
    configures execution.  For each ``(kind, m, n)`` point, ``replicas``
    uniform random initial colorings are advanced by the batched engine
    in blocks of ``settings.batch_size`` rows (default 256), and the
    per-row outcomes are reduced to one record (fractions converged /
    target-monochromatic / monotone, plus round statistics over
    converged rows).

    The workload splits into ``(point x replica block)`` shards of
    ``settings.shard_size`` replicas (default: the batch size) that fan
    out over ``settings.processes`` pool workers; per-shard integer
    partials are reduced in shard order, so the records are
    bitwise-identical at any process count.

    ``settings.ledger`` (a :class:`~repro.io.ledger.RunLedger` or a
    path) commits each ``(point, shard)`` partial durably as it
    completes; rerunning the same sweep with ``settings.resume``
    replays committed shards and computes only the rest,
    bitwise-identically at any process count.
    The run identity pins the sweep definition (rule, grid, replicas,
    seed, batch/shard geometry, ``max_rounds``, dynamics version) and
    excludes ``processes``.
    """
    from ..engine.batch import DYNAMICS_VERSION
    from ..rules import make_rule  # validate the rule name before forking

    batch_size = settings.resolved_batch_size(256)
    shard_size = settings.shard_size
    validate_positive(replicas, flag="replicas")
    validate_positive(batch_size, flag="batch_size")
    if shard_size is not None:
        validate_positive(shard_size, flag="shard_size")
    make_rule(rule_name, num_colors=num_colors)
    nproc = validate_processes(settings.processes)
    pts: List[SweepPoint] = list(points)
    counts = shard_counts(replicas, shard_size if shard_size is not None else batch_size)
    shards = [
        (kind, m, n, rule_name, num_colors, count, si, seed, batch_size,
         max_rounds)
        for kind, m, n in pts
        for si, count in enumerate(counts)
    ]
    checkpoint = None
    max_retries = 0
    if settings.ledger is not None:
        led = open_ledger(settings.ledger)
        definition = {
            "experiment": "convergence-sweep",
            "dynamics": DYNAMICS_VERSION,
            "rule": str(rule_name),
            "colors": int(num_colors),
            "replicas": int(replicas),
            "batch_size": int(batch_size),
            "shard_size": None if shard_size is None else int(shard_size),
            "seed": int(seed),
            "max_rounds": None if max_rounds is None else int(max_rounds),
            "points": [[str(kind), int(m), int(n)] for kind, m, n in pts],
        }
        scope = LedgerScope(
            led, led.begin(definition, resume=settings.resume)
        )
        checkpoint = scope.checkpoint_for(
            [(kind, int(m), int(n), si)
             for kind, m, n in pts
             for si in range(len(counts))]
        )
        max_retries = DEFAULT_SHARD_RETRIES
    with settings.telemetry_scope("convergence-sweep"), obs.span(
        "phase",
        key="convergence-sweep",
        level="basic",
        points=len(pts),
        shards=len(shards),
    ):
        partials = run_sharded(
            _convergence_shard,
            shards,
            processes=nproc,
            checkpoint=checkpoint,
            max_retries=max_retries,
            cancel=settings.cancel,
        )
    if settings.ledger is not None:
        scope.ledger.finish(scope.run_id)

    rows = []
    per_point = len(counts)
    for pi, (kind, m, n) in enumerate(pts):
        parts = partials[pi * per_point : (pi + 1) * per_point]
        converged = sum(p[0] for p in parts)
        monochromatic = sum(p[1] for p in parts)
        monotone = sum(p[2] for p in parts)
        rounds_sum = sum(p[3] for p in parts)
        rounds_max = max((p[4] for p in parts), default=0)
        rows.append(
            (
                kind,
                m,
                n,
                rule_name,
                replicas,
                converged / replicas,
                monochromatic / replicas,
                monotone / replicas,
                rounds_sum / converged if converged else float("nan"),
                rounds_max,
            )
        )
    out = np.empty(len(rows), dtype=CONVERGENCE_DTYPE)
    for i, row in enumerate(rows):
        out[i] = row
    return out


def square_points(kind: str, sizes: Sequence[int]) -> List[SweepPoint]:
    """(kind, s, s) for each size."""
    return [(kind, s, s) for s in sizes]


def rect_points(
    kind: str, ms: Sequence[int], ns: Sequence[int]
) -> List[SweepPoint]:
    """Cartesian (kind, m, n) grid."""
    return [(kind, m, n) for m in ms for n in ns]
