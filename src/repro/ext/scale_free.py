"""SMP dynamics on scale-free networks (the paper's first future-work item).

The conclusions propose studying the SMP protocol on scale-free graphs "in
order to have a comparative analysis with respect to other algorithmic
models of social influence".  This module provides:

* Barabási–Albert graph generation (via networkx, wrapped into our
  :class:`~repro.topology.graph.GraphTopology`),
* hub-, random-, and degree-weighted seeding strategies,
* :func:`run_scale_free_experiment` — seed a fraction of vertices with the
  target color, run the generalized plurality rule, report takeover,
* :func:`scale_free_takeover_census` — the production-scale version: a
  grid of (strategy, seed fraction) cells, each averaging many replicas
  over many independent BA graphs, sharded per graph across a process
  pool and executed as ``(R, N)`` blocks through
  :func:`~repro.engine.batch.run_batch`, with per-cell results cached in
  the witness database.

Because hubs dominate plurality counts, a small hub seed converts far more
of a BA graph than a random seed of equal size — the scale-free analogue of
"a well-placed dynamo beats a random fault pattern".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..engine.batch import DYNAMICS_VERSION, run_batch
from ..engine.context import ExecutionSettings, RunStats
from ..engine.parallel import (
    DEFAULT_SHARD_RETRIES,
    RunCancelled,
    kind_tag,
    run_sharded,
    validate_positive,
)
from ..engine.runner import run_synchronous
from ..io.ledger import LedgerScope, open_ledger
from ..rules.plurality import GeneralizedPluralityRule
from ..topology.graph import GraphTopology

#: Fixed default seed: omitting ``rng`` must still be reproducible.
_DEFAULT_SEED = 0x5CA1E

__all__ = [
    "ScaleFreeOutcome",
    "ScaleFreeCell",
    "ScaleFreeCensus",
    "SCALE_FREE_STRATEGIES",
    "barabasi_albert_topology",
    "seed_vertices",
    "run_scale_free_experiment",
    "scale_free_takeover_census",
]

#: the seeding strategies the census sweeps by default
SCALE_FREE_STRATEGIES = ("hubs", "degree-weighted", "random")


@dataclass
class ScaleFreeOutcome:
    """Result of one scale-free SMP run."""

    num_vertices: int
    seed_size: int
    strategy: str
    #: fraction of vertices holding the target color at the fixed point/cap
    final_k_fraction: float
    rounds: int
    converged: bool
    monochromatic: bool


def barabasi_albert_topology(
    n: int, m_attach: int, rng: np.random.Generator
) -> GraphTopology:
    """A BA preferential-attachment graph as a GraphTopology."""
    import networkx as nx

    seed_int = int(rng.integers(0, 2**31 - 1))
    g = nx.barabasi_albert_graph(n, m_attach, seed=seed_int)
    return GraphTopology(g)


def seed_vertices(
    topo: GraphTopology,
    count: int,
    strategy: str,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pick seed vertex ids by strategy: ``hubs`` (highest degree),
    ``random`` (uniform), or ``degree-weighted`` (probability ~ degree)."""
    n = topo.num_vertices
    count = min(count, n)
    if strategy == "hubs":
        return np.argsort(-topo.degrees.astype(np.int64), kind="stable")[:count]
    if strategy == "random":
        return rng.choice(n, size=count, replace=False)
    if strategy == "degree-weighted":
        w = topo.degrees.astype(np.float64)
        return rng.choice(n, size=count, replace=False, p=w / w.sum())
    raise ValueError(f"unknown strategy {strategy!r}")


def run_scale_free_experiment(
    n: int = 500,
    m_attach: int = 2,
    seed_fraction: float = 0.05,
    strategy: str = "hubs",
    num_colors: int = 4,
    rng: Optional[np.random.Generator] = None,
    max_rounds: int = 400,
) -> ScaleFreeOutcome:
    """Seed color-k vertices on a BA graph, run plurality SMP, report.

    Non-seed vertices get uniform random colors from the rest of the
    palette (the multi-colored analogue of the torus experiments).  The
    run executes through :func:`~repro.engine.runner.run_synchronous`,
    which stops a cycling run at its first repeated state, so
    ``rounds`` counts the rounds up to that repeat; the RNG draw order
    (graph, then colors, then seeds) is exactly the historical one.
    """
    rng = rng if rng is not None else np.random.default_rng(_DEFAULT_SEED)
    topo = barabasi_albert_topology(n, m_attach, rng)
    k = 0
    others = np.arange(1, num_colors)
    colors = others[rng.integers(0, others.size, size=topo.num_vertices)].astype(
        np.int32
    )
    seeds = seed_vertices(topo, max(1, int(round(seed_fraction * n))), strategy, rng)
    colors[seeds] = k
    rule = GeneralizedPluralityRule(num_colors=num_colors)
    res = run_synchronous(
        topo, colors, rule, max_rounds=max_rounds, track_changes=False
    )
    final = res.final
    return ScaleFreeOutcome(
        num_vertices=topo.num_vertices,
        seed_size=int(seeds.size),
        strategy=strategy,
        final_k_fraction=float((final == k).mean()),
        rounds=res.rounds,
        converged=res.converged,
        monochromatic=bool(res.converged and (final == final[0]).all()),
    )


# ----------------------------------------------------------------------
# the sharded takeover census
# ----------------------------------------------------------------------


@dataclass
class ScaleFreeCell:
    """Aggregated statistics for one (strategy, seed-fraction) cell."""

    strategy: str
    seed_fraction: float
    graphs: int
    replicas: int
    #: fraction of all replicas that converged to all-k
    takeover_rate: float
    #: mean final k-fraction over all replicas
    mean_final_k_fraction: float
    #: mean rounds over all replicas
    mean_rounds: float
    #: fraction of replicas that reached any fixed point
    converged_rate: float
    #: the row was served from the witness database, not recomputed
    from_cache: bool = False

    def as_row(self) -> dict:
        """The cached payload (everything except the cache flag)."""
        return {
            "strategy": self.strategy,
            "seed_fraction": self.seed_fraction,
            "graphs": self.graphs,
            "replicas": self.replicas,
            "takeover_rate": self.takeover_rate,
            "mean_final_k_fraction": self.mean_final_k_fraction,
            "mean_rounds": self.mean_rounds,
            "converged_rate": self.converged_rate,
        }

    @classmethod
    def from_row(cls, row: dict, *, from_cache: bool = False) -> "ScaleFreeCell":
        return cls(
            strategy=str(row["strategy"]),
            seed_fraction=float(row["seed_fraction"]),
            graphs=int(row["graphs"]),
            replicas=int(row["replicas"]),
            takeover_rate=float(row["takeover_rate"]),
            mean_final_k_fraction=float(row["mean_final_k_fraction"]),
            mean_rounds=float(row["mean_rounds"]),
            converged_rate=float(row["converged_rate"]),
            from_cache=from_cache,
        )


@dataclass
class ScaleFreeCensus:
    """All cells of one census invocation plus execution statistics.

    ``run_stats`` is the typed accounting (cells / cache hits / records
    appended).
    """

    cells: List[ScaleFreeCell]
    run_stats: RunStats = field(default_factory=RunStats)


def _fraction_tag(seed_fraction: float) -> int:
    """Integer seed material for a seed fraction (micro-units)."""
    return int(round(float(seed_fraction) * 1_000_000))


#: one shard = one BA graph of one cell:
#: (seed, n, m_attach, num_colors, strategy, fraction, graph, replicas,
#:  max_rounds)
_GraphShard = Tuple[int, int, int, int, str, float, int, int, int]


def _scale_free_graph_worker(shard: _GraphShard) -> dict:
    """Run every replica of one graph as a single ``(R, N)`` block.

    The shard RNG derives from cell/graph *coordinates*
    (``SeedSequence([seed, kind_tag(strategy), fraction_tag, graph])``),
    never from execution order, so any process count draws identical
    streams.  Per replica the draws are colors first, then seeds — the
    scalar experiment's order.
    """
    (
        seed, n, m_attach, num_colors, strategy, fraction,
        graph, replicas, max_rounds,
    ) = shard
    rng = np.random.default_rng(
        np.random.SeedSequence(
            [int(seed), kind_tag(strategy), _fraction_tag(fraction), int(graph)]
        )
    )
    topo = barabasi_albert_topology(n, m_attach, rng)
    k = 0
    others = np.arange(1, num_colors)
    count = max(1, int(round(fraction * n)))
    block = np.empty((replicas, topo.num_vertices), dtype=np.int32)
    for r in range(replicas):
        colors = others[
            rng.integers(0, others.size, size=topo.num_vertices)
        ].astype(np.int32)
        colors[seed_vertices(topo, count, strategy, rng)] = k
        block[r] = colors
    rule = GeneralizedPluralityRule(num_colors=num_colors)
    res = run_batch(
        topo,
        block,
        rule,
        max_rounds=max_rounds,
        target_color=k,
    )
    return {
        "takeovers": int(res.k_monochromatic.sum()),
        "converged": int(res.converged.sum()),
        "k_fraction_sum": float((res.final == k).mean(axis=1).sum()),
        "rounds_sum": int(res.rounds.sum()),
    }


def scale_free_takeover_census(
    *,
    n: int = 300,
    m_attach: int = 2,
    num_colors: int = 4,
    strategies: Sequence[str] = SCALE_FREE_STRATEGIES,
    seed_fractions: Sequence[float] = (0.02, 0.05, 0.10),
    graphs: int = 4,
    replicas: int = 32,
    max_rounds: Optional[int] = None,
    seed: int = 0x5CA1E,
    db=None,
    settings: ExecutionSettings = ExecutionSettings(),
) -> ScaleFreeCensus:
    """Sweep (strategy x seed fraction), averaging replicas over BA graphs.

    ``settings`` (an :class:`~repro.engine.context.ExecutionSettings`)
    configures execution.  This census has fixed shard geometry (one
    graph's replicas advance as one block), so a ``shard_size`` or
    ``batch_size`` in the settings is refused rather than silently
    ignored; ``settings.cancel`` is checked between cells and shards.

    Each cell runs ``graphs`` independent Barabási–Albert graphs with
    ``replicas`` random initial configurations each; a graph is one
    shard (its replicas advance as one ``(R, N)`` block), so cells fan
    out over the pool via :func:`~repro.engine.parallel.run_sharded`.
    Shard RNGs derive from coordinates, so the census is
    **bitwise-identical at any process count** — and ``processes`` is
    therefore excluded from the cell definition (it cannot change
    outcomes, only speed).

    With ``db`` (a :class:`~repro.io.witnessdb.WitnessDB`), every
    computed cell is recorded as a ``scale-free-cell`` row and later
    invocations with the same definition are served from the cache
    without running a single replica; the returned ``run_stats``
    reports ``cells`` / ``cache_hits`` / ``records_appended``.

    ``settings.ledger`` (a :class:`~repro.io.ledger.RunLedger` or a
    path) commits every completed graph shard durably under the
    census's run id; ``settings.resume`` replays committed shards after
    a crash and computes only the rest, bitwise-identically at any
    process count.  The run identity pins the census definition (grid,
    seed, dynamics version) and excludes ``processes``.
    """
    from ..io.witnessdb import CellRecord

    settings.reject(
        "scale_free_takeover_census", "shard_size", "batch_size"
    )
    n = validate_positive(n, flag="n")
    graphs = validate_positive(graphs, flag="graphs")
    replicas = validate_positive(replicas, flag="replicas")
    if num_colors < 2:
        raise ValueError("the census needs at least 2 colors")
    if max_rounds is None:
        max_rounds = 4 * n + 64
    for strategy in strategies:
        if strategy not in SCALE_FREE_STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of "
                f"{sorted(SCALE_FREE_STRATEGIES)}"
            )
    cache_hits = recorded = 0

    scope: Optional[LedgerScope] = None
    if settings.ledger is not None:
        led = open_ledger(settings.ledger)
        run_definition = {
            "experiment": "scale-free-takeover-census",
            "dynamics": DYNAMICS_VERSION,
            "seed": int(seed),
            "n": n,
            "m_attach": int(m_attach),
            "num_colors": int(num_colors),
            "strategies": [str(s) for s in strategies],
            "seed_fractions": [float(f) for f in seed_fractions],
            "graphs": graphs,
            "replicas": replicas,
            "max_rounds": int(max_rounds),
        }
        scope = LedgerScope(
            led, led.begin(run_definition, resume=settings.resume)
        )

    cells: List[ScaleFreeCell] = []
    with settings.telemetry_scope("scale-free-census"):
        for strategy in strategies:
            for fraction in seed_fractions:
                fraction = float(fraction)
                if settings.cancelled():
                    raise RunCancelled(
                        "scale-free census cancelled between cells"
                    )
                with obs.span(
                    "cell", key=[strategy, fraction], level="basic"
                ):
                    definition = {
                        "experiment": "scale-free-takeover",
                        "dynamics": DYNAMICS_VERSION,
                        "seed": int(seed),
                        "n": n,
                        "m_attach": int(m_attach),
                        "num_colors": int(num_colors),
                        "strategy": strategy,
                        "seed_fraction": fraction,
                        "graphs": graphs,
                        "replicas": replicas,
                        "max_rounds": int(max_rounds),
                    }
                    if db is not None:
                        cached = db.find_cell(
                            "scale-free-cell",
                            definition,
                            strategy=strategy,
                            seed_fraction=fraction,
                        )
                        if cached is not None:
                            cells.append(
                                ScaleFreeCell.from_row(cached.row, from_cache=True)
                            )
                            cache_hits += 1
                            continue
                    shards: List[_GraphShard] = [
                        (
                            int(seed), n, int(m_attach), int(num_colors),
                            strategy, fraction, g, replicas, int(max_rounds),
                        )
                        for g in range(graphs)
                    ]
                    checkpoint = None
                    if scope is not None:
                        checkpoint = scope.child(
                            strategy, _fraction_tag(fraction)
                        ).checkpoint(graphs, label="graph")
                    partials = run_sharded(
                        _scale_free_graph_worker,
                        shards,
                        processes=settings.processes,
                        checkpoint=checkpoint,
                        max_retries=(
                            DEFAULT_SHARD_RETRIES
                            if checkpoint is not None
                            else 0
                        ),
                        cancel=settings.cancel,
                    )
                    total = graphs * replicas
                    cell = ScaleFreeCell(
                        strategy=strategy,
                        seed_fraction=fraction,
                        graphs=graphs,
                        replicas=replicas,
                        takeover_rate=(
                            sum(p["takeovers"] for p in partials) / total
                        ),
                        mean_final_k_fraction=(
                            sum(p["k_fraction_sum"] for p in partials) / total
                        ),
                        mean_rounds=sum(p["rounds_sum"] for p in partials) / total,
                        converged_rate=(
                            sum(p["converged"] for p in partials) / total
                        ),
                    )
                    cells.append(cell)
                    if db is not None:
                        db.add_cell(
                            CellRecord(
                                type="scale-free-cell",
                                key={
                                    "strategy": strategy,
                                    "seed_fraction": fraction,
                                },
                                definition=definition,
                                row=cell.as_row(),
                            )
                        )
                        recorded += 1
    if scope is not None:
        scope.ledger.finish(scope.run_id)
    return ScaleFreeCensus(
        cells=cells,
        run_stats=RunStats(
            cells=len(cells),
            cache_hits=cache_hits,
            records_appended=recorded,
        ),
    )
