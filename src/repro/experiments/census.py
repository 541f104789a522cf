"""Below-bound dynamo census — the Theorem 1/3/5 audit as an experiment.

Builds the table in EXPERIMENTS.md: for each torus kind and size, the
paper's lower bound, the smallest monotone dynamo this reproduction can
certify (exhaustive minimum on 3x3, diagonal-family witnesses and random
search elsewhere), and the witness provenance.

Reproducibility: every cell derives its own RNG root from
``SeedSequence([seed, kind_tag, n, seed_size])`` — a cell's result never
depends on which cells ran before it or on the ``kinds``/``sizes``
order.  The random searches shard their trials across ``processes``
pool workers through :mod:`repro.engine.parallel`, with per-shard
streams derived from shard coordinates, so the census is
**bitwise-identical at any process count** (it does depend on ``seed``,
``shard_size`` and ``batch_size``, which are part of the experiment
definition).

Witness persistence: pass ``db`` (a
:class:`~repro.io.witnessdb.WitnessDB` or a path) and every cell records
its winning witness configuration *and* a ``census-cell`` summary keyed
by the experiment definition.  On a re-run with the same definition the
cell is served from the store — the sharded pool never spins up — and
because the stored row is the bitwise row the fresh run would produce,
cached and fresh censuses are indistinguishable in output.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..core.bounds import lower_bound
from ..core.diagonal import diagonal_dynamo
from ..core.search import exhaustive_min_dynamo_size, random_dynamo_search
from ..core.verify import is_monotone_dynamo
from ..engine.batch import DYNAMICS_VERSION
from ..engine.context import ExecutionSettings, RunStats
from ..engine.parallel import (
    RunCancelled,
    kind_tag,
    validate_positive,
    validate_processes,
)
from ..io.ledger import LedgerScope, open_ledger
from ..io.witnessdb import CellRecord, WitnessDB
from ..topology.base import Topology
from ..topology.tori import make_torus

__all__ = ["CensusResult", "CensusRow", "below_bound_census"]

#: palette size used by the statistical (random-search) branches; richer
#: than the constructions' palettes because more colors only make small
#: dynamos easier — the audit wants the strongest counterexample hunt.
_RANDOM_PALETTE = 5

#: palette size of the 3x3 exhaustive minimum (3 colors suffice there and
#: keep the full enumeration tractable)
_EXHAUSTIVE_PALETTE = 3


@dataclass
class CensusRow:
    """One line of the audit table."""

    kind: str
    n: int
    paper_bound: int
    #: smallest size with a certified monotone dynamo witness
    certified_size: Optional[int]
    #: how the witness was found ("exhaustive" / "diagonal" / "random")
    method: str
    #: no witness was found below this size by this row's search: one more
    #: than the largest seed size searched without finding a witness.
    #: Exhaustive rows certify every smaller size; diagonal/random rows
    #: searched the boundary statistically (the downward scan stops at its
    #: first witness-free size).  ``None`` when no size below the witness
    #: was searched.
    ruled_out_below: Optional[int] = None

    @property
    def below_bound(self) -> Optional[bool]:
        if self.certified_size is None:
            return None
        return self.certified_size < self.paper_bound


#: a cell's winning witness, threaded out of the search branches for
#: recording: (row-major configuration, palette size, target color)
_CellWitness = Optional[Tuple[np.ndarray, int, int]]


class CensusResult(List[CensusRow]):
    """The audit table (a plain list of rows) plus typed run accounting.

    Behaves exactly like the ``List[CensusRow]`` the census always
    returned; :attr:`run_stats` carries the cache/record counts.
    """

    run_stats: RunStats

    def __init__(self, rows: Sequence[CensusRow], run_stats: RunStats) -> None:
        super().__init__(rows)
        self.run_stats = run_stats


def _random_floor_scan(
    topo: Topology,
    start_size: int,
    trials: int,
    entropy_base: Sequence[int],
    *,
    settings: ExecutionSettings,
    db: Optional[WitnessDB] = None,
    ledger_scope: Optional[LedgerScope] = None,
) -> Tuple[Optional[int], Optional[int], _CellWitness]:
    """Scan seed sizes downward from ``start_size`` by random search.

    Returns ``(best, ruled_out_below, witness)``: the smallest size in
    the consecutive witness run starting at ``start_size`` (``None``
    when even ``start_size`` yields no witness), one more than the size
    the scan stopped at without a witness (``None`` when every size down
    to 3 produced one — nothing was ruled out), and the first monotone
    witness found at the best size (for recording).  Each size draws
    from its own ``SeedSequence([*entropy_base, seed_size])`` root.
    """
    best: Optional[int] = None
    witness: _CellWitness = None
    for s in range(start_size, 2, -1):
        out = random_dynamo_search(
            topo,
            s,
            _RANDOM_PALETTE,
            trials,
            [*entropy_base, s],
            monotone_only=True,
            settings=settings,
            db=db,
            ledger_scope=(
                None if ledger_scope is None else ledger_scope.child("size", s)
            ),
        )
        if out.found_monotone_dynamo:
            best = s
            cfg = next(c for c, mono in out.witnesses if mono)
            witness = (cfg, _RANDOM_PALETTE, 0)
        else:
            return best, s + 1, witness
    return best, None, witness


def _open_db(db: Union[WitnessDB, str, Path, None]) -> Optional[WitnessDB]:
    if db is None or isinstance(db, WitnessDB):
        return db
    return WitnessDB(db)


def _row_from_cell(cell: CellRecord) -> CensusRow:
    return CensusRow(**cell.row)


def below_bound_census(
    kinds: Sequence[str] = ("mesh", "cordalis", "serpentinus"),
    sizes: Sequence[int] = (3, 4, 5, 6),
    *,
    random_trials: int = 20_000,
    seed: int = 0xBEEF,
    db: Union[WitnessDB, str, Path, None] = None,
    settings: ExecutionSettings = ExecutionSettings(),
) -> "CensusResult":
    """Run the audit; every returned witness size is re-verified.

    ``settings`` (an :class:`~repro.engine.context.ExecutionSettings`)
    configures execution.  The returned :class:`CensusResult` is the
    usual list of rows plus a typed :attr:`~CensusResult.run_stats`.

    ``settings.batch_size`` (default 8192) is the replica-block width
    handed to the batched engine (:func:`repro.engine.batch.run_batch`)
    by both the exhaustive and the random searches;
    ``settings.processes``/``settings.shard_size`` shard the
    random-search trials across a worker pool (``processes=0`` runs
    inline, ``None`` uses every core) without changing any result.

    ``db`` (a :class:`~repro.io.witnessdb.WitnessDB` or a path to one)
    enables the witness cache: each ``(kind, n)`` cell whose experiment
    definition — ``seed``, ``random_trials``, ``batch_size``,
    ``shard_size``, plus the module's search palettes — matches a
    stored ``census-cell`` record is served
    from the store without running any search, and freshly computed
    cells store their witness and summary on the way out.

    ``settings.ledger`` (a :class:`~repro.io.ledger.RunLedger` or a
    path) makes the census crash-safe: the run — identified by a digest
    of this definition plus the ``kinds``/``sizes`` grid — commits every
    completed search shard and every finished cell to the ledger with
    durable appends.  After a kill, rerunning the same invocation with
    ``settings.resume`` replays completed work bitwise and continues
    mid-grid; the resumed run's rows, witness ids, and db contents are
    identical to an uninterrupted run at any process count.  Worker
    death inside the sharded searches is retried (bounded) before a
    structured error surfaces.  ``processes`` stays excluded from the
    run identity — it is bitwise-invisible.
    """
    validate_processes(settings.processes)
    batch_size = settings.resolved_batch_size(8192)
    validate_positive(batch_size, flag="batch_size")
    shard_size = settings.shard_size
    if shard_size is not None:
        shard_size = validate_positive(shard_size, flag="shard_size")
    # what the inner searches see: geometry fully resolved (the random
    # search's own batch default must never apply), ledger handed down
    # as explicit scopes instead of a second top-level run
    search_settings = replace(
        settings,
        batch_size=batch_size,
        shard_size=shard_size,
        ledger=None,
        resume=False,
        telemetry=None,
    )
    store = _open_db(db)
    witnesses_before = len(store) if store is not None else 0
    definition = {
        "experiment": "below-bound-census",
        "dynamics": DYNAMICS_VERSION,
        "seed": int(seed),
        "trials": int(random_trials),
        "batch_size": int(batch_size),
        "shard_size": None if shard_size is None else int(shard_size),
        # not parameters, but part of the outcome's identity: a cached
        # cell must not survive a change to the scan's palettes
        "palette": _RANDOM_PALETTE,
        "exhaustive_colors": _EXHAUSTIVE_PALETTE,
    }
    scope: Optional[LedgerScope] = None
    if settings.ledger is not None:
        led = open_ledger(settings.ledger)
        run_definition = {
            **definition,
            "kinds": [str(kind) for kind in kinds],
            "sizes": [int(s) for s in sizes],
        }
        scope = LedgerScope(
            led, led.begin(run_definition, resume=settings.resume)
        )
    cache_hits = 0
    rows: List[CensusRow] = []

    def commit_cell(
        row: CensusRow, witness: _CellWitness, cell_scope: Optional[LedgerScope]
    ) -> None:
        """One cell is done: db writes first, ledger commit last.

        Ordering is the resume contract — a cell replayed from the
        ledger is guaranteed to have finished its db appends, so a
        resumed census appends to the witness db in exactly the order
        an uninterrupted run would.
        """
        rows.append(row)
        _record_cell(store, definition, row, witness)
        if cell_scope is not None:
            cell_scope.put({"row": asdict(row), "witness": witness}, "cell")

    with settings.telemetry_scope("census"):
        for kind in kinds:
            for n in sizes:
                if settings.cancelled():
                    raise RunCancelled("census cancelled between cells")
                with obs.span("cell", key=[str(kind), int(n)], level="basic"):
                    cell_scope = (
                        scope.child(str(kind), int(n)) if scope else None
                    )
                    if store is not None:
                        cell = store.find_cell(
                            "census-cell", definition, kind=kind, n=n
                        )
                        if cell is not None:
                            rows.append(_row_from_cell(cell))
                            cache_hits += 1
                            continue
                    if cell_scope is not None:
                        stored = cell_scope.get("cell")
                        if stored is not None:
                            # replay the committed cell; _record_cell
                            # converges a db the crash left behind the
                            # ledger (idempotent when the writes landed)
                            row = CensusRow(**stored["row"])
                            rows.append(row)
                            _record_cell(
                                store, definition, row, stored["witness"]
                            )
                            continue
                    bound = lower_bound(kind, n, n)
                    cell_entropy = (int(seed), kind_tag(kind), int(n))
                    witness: _CellWitness = None
                    if n == 3:
                        topo = make_torus(kind, 3, 3)
                        size, outcomes = exhaustive_min_dynamo_size(
                            topo,
                            num_colors=_EXHAUSTIVE_PALETTE,
                            monotone_only=True,
                            max_seed_size=bound,
                            db=store,
                            ledger_scope=cell_scope,
                            # the exhaustive path does not shard: its
                            # settings must not carry a shard_size
                            settings=replace(search_settings, shard_size=None),
                        )
                        if size is not None:
                            witness = (
                                outcomes[-1].witnesses[0][0],
                                _EXHAUSTIVE_PALETTE,
                                0,
                            )
                        row = CensusRow(
                            kind=kind,
                            n=n,
                            paper_bound=bound,
                            certified_size=size,
                            method="exhaustive",
                            ruled_out_below=size,
                        )
                        commit_cell(row, witness, cell_scope)
                        continue
                    # diagonal family first (cheap for cached mesh sizes)
                    con = diagonal_dynamo(
                        n, kind, max_nodes=2_000_000 if n <= 5 else 8_000_000,
                        cancel=settings.cancel,
                    )
                    if con is not None and is_monotone_dynamo(
                        con.topo, con.colors, con.k
                    ):
                        # probe below the diagonal witness so the row
                        # records how far the audit actually looked (and
                        # catches any smaller random witness the diagonal
                        # family misses)
                        below, ruled_out, probe_witness = _random_floor_scan(
                            con.topo,
                            con.seed_size - 1,
                            random_trials,
                            cell_entropy,
                            settings=search_settings,
                            db=store,
                            ledger_scope=cell_scope,
                        )
                        if below is not None:
                            witness = probe_witness
                        else:
                            witness = (con.colors, con.num_colors, con.k)
                        row = CensusRow(
                            kind=kind,
                            n=n,
                            paper_bound=bound,
                            certified_size=(
                                below if below is not None else con.seed_size
                            ),
                            method="diagonal" if below is None else "random",
                            ruled_out_below=ruled_out,
                        )
                        commit_cell(row, witness, cell_scope)
                        continue
                    # fall back to random search just below the bound
                    topo = make_torus(kind, n, n)
                    best, ruled_out, witness = _random_floor_scan(
                        topo,
                        bound - 1,
                        random_trials,
                        cell_entropy,
                        settings=search_settings,
                        db=store,
                        ledger_scope=cell_scope,
                    )
                    row = CensusRow(
                        kind=kind,
                        n=n,
                        paper_bound=bound,
                        certified_size=best,
                        method="random",
                        ruled_out_below=ruled_out,
                    )
                    commit_cell(row, witness, cell_scope)
    if scope is not None:
        scope.ledger.finish(scope.run_id)
    # actual store growth — the searches themselves append witnesses
    # beyond the one-per-cell the census links to its row
    recorded = (len(store) - witnesses_before) if store is not None else 0
    return CensusResult(
        rows,
        RunStats(
            cells=len(rows), cache_hits=cache_hits, records_appended=recorded
        ),
    )


def _record_cell(
    store: Optional[WitnessDB],
    definition: dict,
    row: CensusRow,
    witness: _CellWitness,
) -> None:
    """Persist one freshly computed cell: its witness (when the searches
    have not already recorded it) and the census-cell summary."""
    if store is None:
        return
    from .. import __version__
    from ..io.serialize import WitnessRecord

    witness_id = None
    if witness is not None and row.certified_size is not None:
        cfg, palette, k = witness
        record = WitnessRecord(
            rule="smp",
            kind=row.kind,
            m=row.n,
            n=row.n,
            colors=palette,
            k=k,
            seed_size=row.certified_size,
            monotone=True,
            configuration=cfg,
            method=row.method,
            provenance={
                "source": "census",
                "census": definition,
                "paper_bound": row.paper_bound,
                "engine": __version__,
            },
        )
        store.add(record)
        witness_id = record.id
    store.add_cell(
        CellRecord(
            type="census-cell",
            key={"kind": row.kind, "n": row.n},
            definition=definition,
            row=asdict(row),
            witness_id=witness_id,
        )
    )
