"""Minimum-dynamo searches: exhaustive on tiny tori, randomized elsewhere.

The paper's lower bounds (Theorems 1, 3, 5) are universally quantified —
*no* seed below the bound admits *any* complement coloring that makes it a
monotone dynamo.  A simulation-based reproduction can check this exactly on
tiny tori (every seed placement x every complement coloring, batched
through the rule-agnostic engine :mod:`repro.engine.batch`) and
probabilistically on small ones
(random seeds + random complements).  Both searches return *witnesses*
when they find a dynamo, so positive results (existence at the bound) are
also machine-checkable.

Complexity guard: exhaustive enumeration costs
``C(N, s) * (|C| - 1)^(N - s)`` configurations for seed size ``s``; the
functions refuse (raise) when the requested enumeration exceeds
``max_configs`` instead of silently melting the laptop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np

if TYPE_CHECKING:  # runtime import stays lazy: io.serialize imports core
    from ..io.ledger import LedgerScope
    from ..io.witnessdb import WitnessDB

from .. import obs
from ..engine.batch import DYNAMICS_VERSION, run_batch
from ..engine.context import ExecutionSettings, LedgerSetting
from ..engine.parallel import (
    DEFAULT_SHARD_RETRIES,
    RunCancelled,
    build_topology,
    run_sharded,
    shard_counts,
    topology_spec,
    validate_positive,
    validate_processes,
)
from ..rules.base import Rule
from ..rules.smp import SMPRule
from ..topology.base import Topology

__all__ = [
    "SearchOutcome",
    "exhaustive_dynamo_search",
    "exhaustive_min_dynamo_size",
    "random_dynamo_search",
    "count_configs",
]

def _open_top_ledger(
    ledger: LedgerSetting,
    resume: bool,
    definition: Optional[dict],
) -> Optional["LedgerScope"]:
    """Open a driver-level run ledger and begin/resume its run.

    Returns the run's root :class:`~repro.io.ledger.LedgerScope`, or
    ``None`` when no ledger was requested.  Raises when the topology has
    no registry spec (``definition is None``) — a run the ledger cannot
    re-identify cannot be resumed.
    """
    if ledger is None:
        return None
    if definition is None:
        raise ValueError(
            "a run ledger requires a registry torus (the run definition "
            "must identify the topology to be resumable)"
        )
    from ..io.ledger import LedgerScope, open_ledger

    led = open_ledger(ledger)
    rid = led.begin(definition, resume=resume)
    return LedgerScope(led, rid)


def _outcome_payload(outcome: "SearchOutcome") -> dict:
    """A ledger payload capturing a fresh outcome bitwise."""
    return {
        "seed_size": int(outcome.seed_size),
        "examined": int(outcome.examined),
        "exhaustive": bool(outcome.exhaustive),
        "witnesses": [
            (np.asarray(cfg), bool(mono)) for cfg, mono in outcome.witnesses
        ],
    }


def _outcome_from_payload(payload: dict) -> "SearchOutcome":
    """Replay a ledgered outcome as if the search had just run.

    ``cached`` stays ``False``: unlike a witness-db hit (capped witness
    list, separate provenance), a ledger replay restores the *full*
    fresh result, so downstream printing and recording behave exactly as
    in the uninterrupted run.
    """
    return SearchOutcome(
        seed_size=int(payload["seed_size"]),
        examined=int(payload["examined"]),
        witnesses=[(cfg, bool(mono)) for cfg, mono in payload["witnesses"]],
        exhaustive=bool(payload["exhaustive"]),
    )


@dataclass
class SearchOutcome:
    """Result of a search over configurations with a fixed seed size."""

    seed_size: int
    #: number of configurations examined
    examined: int
    #: witnesses: (colors vector, monotone flag) for k-dynamos found
    witnesses: List[Tuple[np.ndarray, bool]] = field(default_factory=list)
    #: True when the search covered every configuration of this size
    exhaustive: bool = False
    #: True when the outcome was served from a witness database instead
    #: of running the search (``examined``/``exhaustive`` restored from
    #: the stored summary; the witness list holds the *recorded*
    #: witnesses, which caps at ``_DB_RECORD_CAP`` per original search)
    cached: bool = False
    #: total witnesses the original search found, on cached outcomes
    #: where the cap recorded only representatives (``None`` when fresh)
    found_total: Optional[int] = None

    @property
    def found_dynamo(self) -> bool:
        return bool(self.witnesses)

    @property
    def found_monotone_dynamo(self) -> bool:
        return any(mono for _, mono in self.witnesses)


def count_configs(n_vertices: int, seed_size: int, num_colors: int) -> int:
    """Number of configurations enumerated for one seed size."""
    from math import comb

    return comb(n_vertices, seed_size) * (num_colors - 1) ** (
        n_vertices - seed_size
    )


#: witnesses recorded into a database per search call; searches can find
#: thousands at easy sizes and the catalog wants representatives, not a
#: dump (the total count lands in provenance as ``witnesses_found``)
_DB_RECORD_CAP = 16


def _db_cached_outcome(
    db: Optional["WitnessDB"], definition: Optional[dict], seed_size: int
) -> Optional[SearchOutcome]:
    """Rebuild a SearchOutcome from a stored search summary.

    Only *positive* outcomes are cached (a search that found nothing
    records no summary), so a miss means "run the search", never "the
    answer is no".  A summary whose witness rows are missing from the
    store (hand-pruned file) is treated as a miss rather than served
    incomplete.
    """
    if db is None or definition is None:
        return None
    summary = db.find_search(definition)
    if summary is None:
        return None
    witnesses = []
    for wid in summary.witness_ids:
        record = db.get(wid)
        if record is None:
            return None
        witnesses.append((record.colors_array(), record.monotone))
    return SearchOutcome(
        seed_size=seed_size,
        examined=summary.examined,
        witnesses=witnesses,
        exhaustive=summary.exhaustive,
        cached=True,
        found_total=summary.witnesses_found,
    )


def _db_record_outcome(
    db: Optional["WitnessDB"],
    definition: Optional[dict],
    spec,
    rule: Rule,
    num_colors: int,
    k: int,
    outcome: SearchOutcome,
    method: str,
    shard_of: Optional[List[int]] = None,
) -> None:
    """Persist a finished search: its witnesses (up to ``_DB_RECORD_CAP``)
    and the summary the cache matches.  A search has a definition
    whenever it has a database and a registry torus (``spec``)."""
    if db is None or definition is None or not outcome.witnesses:
        return
    from .. import __version__
    from ..io.serialize import WitnessRecord
    from ..io.witnessdb import SearchRecord, rule_registry_name

    kind, m, n = spec
    indices = list(range(min(len(outcome.witnesses), _DB_RECORD_CAP)))
    # keep a cache hit semantically truthful: found_monotone_dynamo on the
    # reconstructed outcome must match the fresh one, so when the cap
    # truncates, a monotone witness (if any exists) must survive it
    if len(outcome.witnesses) > _DB_RECORD_CAP and not any(
        outcome.witnesses[i][1] for i in indices
    ):
        first_mono = next(
            (i for i, (_, mono) in enumerate(outcome.witnesses) if mono), None
        )
        if first_mono is not None:
            indices[-1] = first_mono
    # witnesses reference their search summary by id — the definition
    # itself is stored once, on the SearchRecord the cache consults
    summary_id = SearchRecord(definition=definition).id
    recorded_ids: List[str] = []
    for j in indices:
        cfg, mono = outcome.witnesses[j]
        provenance = {
            "source": "search",
            "examined": int(outcome.examined),
            "exhaustive": bool(outcome.exhaustive),
            "witnesses_found": len(outcome.witnesses),
            "recorded": len(indices),
            "engine": __version__,
            "search_id": summary_id,
        }
        if shard_of is not None:
            provenance["shard"] = int(shard_of[j])
        record = WitnessRecord(
            rule=rule_registry_name(rule, num_colors),
            kind=kind,
            m=m,
            n=n,
            colors=num_colors,
            k=k,
            seed_size=outcome.seed_size,
            monotone=mono,
            configuration=cfg,
            method=method,
            provenance=provenance,
        )
        db.add(record)
        recorded_ids.append(record.id)
    # the summary lists this definition's witnesses even when the
    # configurations themselves were first appended by an earlier search
    # (witness rows dedupe by id; summaries must not, or a cache hit
    # would return an incomplete witness set)
    db.add_search(
        SearchRecord(
            definition=definition,
            witness_ids=recorded_ids,
            examined=int(outcome.examined),
            exhaustive=bool(outcome.exhaustive),
            witnesses_found=len(outcome.witnesses),
        )
    )


def exhaustive_dynamo_search(
    topo: Topology,
    seed_size: int,
    num_colors: int,
    *,
    k: int = 0,
    rule: Optional[Rule] = None,
    max_rounds: Optional[int] = None,
    max_configs: int = 20_000_000,
    stop_at_first: bool = True,
    monotone_only: bool = False,
    db: Optional["WitnessDB"] = None,
    ledger_scope: Optional["LedgerScope"] = None,
    settings: ExecutionSettings = ExecutionSettings(),
) -> SearchOutcome:
    """Enumerate every placement of an s-vertex k-seed together with every
    complement coloring over the remaining ``num_colors - 1`` colors.

    ``settings`` (an :class:`~repro.engine.context.ExecutionSettings`)
    configures execution; ``settings.batch_size`` defaults to 8192.  The
    enumeration is one unit of work, so ``settings.processes`` is
    ignored (bitwise-invisible anyway) while a ``settings.shard_size``
    is refused; ``settings.cancel`` is checked between batches and
    raises :class:`~repro.engine.parallel.RunCancelled`.

    ``settings.ledger`` opens a :class:`~repro.io.ledger.RunLedger` run
    for this search (``settings.resume`` re-opens a previous run); the
    whole enumeration is one unit of work, committed on completion and
    replayed bitwise on resume.  ``ledger_scope`` is the nested form a
    parent driver (the census) passes instead — mutually exclusive with
    ``settings.ledger``.

    ``k`` defaults to 0 and the other colors are ``1..num_colors-1``; by
    color symmetry of the SMP rule this loses no generality.  ``rule``
    defaults to the paper's SMP-Protocol; any
    :class:`~repro.rules.base.Rule` works (the batched engine falls back
    to a row loop for rules without a fast ``step_batch`` kernel).

    ``db`` plugs in a :class:`~repro.io.witnessdb.WitnessDB`: before
    enumerating, the store is consulted for witnesses recorded under an
    identical search definition (same topology, rule, seed size,
    palette, ``stop_at_first``/``monotone_only``/batch geometry) and a
    hit returns immediately with ``cached=True``; after a fresh search,
    every witness found (capped at ``_DB_RECORD_CAP``) is recorded with
    full provenance.  Only registry tori participate — other topologies
    silently skip the database.
    """
    rule = rule if rule is not None else SMPRule()
    settings.reject("exhaustive_dynamo_search", "shard_size")
    batch_size = settings.resolved_batch_size(8192)
    ledger = settings.ledger
    validate_positive(batch_size, flag="batch_size")
    n = topo.num_vertices
    total = count_configs(n, seed_size, num_colors)
    if total > max_configs:
        raise ValueError(
            f"exhaustive search would examine {total:,} configurations "
            f"(> max_configs={max_configs:,}); use random_dynamo_search"
        )
    if max_rounds is None:
        max_rounds = 4 * n + 16
    if ledger is not None and ledger_scope is not None:
        raise ValueError("pass either ledger or ledger_scope, not both")
    needs_spec = db is not None or ledger is not None
    spec = topology_spec(topo) if needs_spec else None
    definition = None
    if spec is not None:
        from ..io.witnessdb import rule_registry_name

        definition = {
            "mode": "exhaustive",
            "dynamics": DYNAMICS_VERSION,
            "rule": rule_registry_name(rule, num_colors),
            "kind": spec[0],
            "m": spec[1],
            "n": spec[2],
            "seed_size": int(seed_size),
            "colors": int(num_colors),
            "k": int(k),
            "monotone_only": bool(monotone_only),
            "stop_at_first": bool(stop_at_first),
            "batch_size": int(batch_size),
            "max_rounds": int(max_rounds),
        }
    top_scope = _open_top_ledger(ledger, settings.resume, definition)
    if top_scope is not None:
        ledger_scope = top_scope
    if db is not None and definition is not None:
        hit = _db_cached_outcome(db, definition, seed_size)
        if hit is not None:
            if top_scope is not None:
                top_scope.ledger.finish(top_scope.run_id)
            return hit
    if ledger_scope is not None:
        stored = ledger_scope.get("outcome")
        if stored is not None:
            replayed = _outcome_from_payload(stored)
            # converge the witness db even when the crash landed between
            # the db writes and the ledger commit (both are idempotent)
            _db_record_outcome(
                db, definition, spec, rule, num_colors, k, replayed,
                "exhaustive",
            )
            if top_scope is not None:
                top_scope.ledger.finish(top_scope.run_id)
            return replayed
    others = [c for c in range(num_colors) if c != k][: num_colors - 1]
    outcome = SearchOutcome(seed_size=seed_size, examined=0, exhaustive=True)

    def commit(finished: SearchOutcome) -> SearchOutcome:
        """Record the fresh outcome: db first, then the ledger commit.

        The ledger record is the commit point — replay only ever serves
        outcomes whose db writes already landed, so a resumed run's db
        appends happen in the same order as an uninterrupted run's.
        """
        _db_record_outcome(
            db, definition, spec, rule, num_colors, k, finished,
            "exhaustive",
        )
        if ledger_scope is not None:
            ledger_scope.put(_outcome_payload(finished), "outcome")
            if top_scope is not None:
                top_scope.ledger.finish(top_scope.run_id)
        return finished

    buf: List[np.ndarray] = []

    def flush() -> bool:
        """Run the buffered configurations; returns True to stop early."""
        if settings.cancelled():
            raise RunCancelled("exhaustive search cancelled between batches")
        if not buf:
            return False
        batch = np.stack(buf)
        buf.clear()
        res = run_batch(
            topo,
            batch,
            rule,
            max_rounds=max_rounds,
            target_color=k,
        )
        hits = np.flatnonzero(
            res.k_monochromatic & (res.monotone if monotone_only else True)
        )
        for idx in hits:
            outcome.witnesses.append(
                (batch[idx].copy(), bool(res.monotone[idx]))
            )
        outcome.examined += batch.shape[0]
        return stop_at_first and bool(hits.size)

    with settings.telemetry_scope("exhaustive-search"), obs.span(
        "phase",
        key="exhaustive-search",
        level="basic",
        seed_size=int(seed_size),
        configs=int(total),
    ):
        for seed in combinations(range(n), seed_size):
            seed = np.asarray(seed, dtype=np.int64)
            rest = np.setdiff1d(np.arange(n), seed)
            for fill in product(others, repeat=rest.size):
                colors = np.empty(n, dtype=np.int32)
                colors[seed] = k
                colors[rest] = fill
                buf.append(colors)
                if len(buf) >= batch_size:
                    if flush():
                        # stop_at_first stopped the enumeration here;
                        # coverage is still complete when this batch
                        # happened to be the final one (total an exact
                        # multiple of batch_size)
                        outcome.exhaustive = outcome.examined == total
                        return commit(outcome)
        # The enumeration loop completed, so every configuration was
        # buffered and this final flush examines the rest — the search is
        # exhaustive whether or not a witness lands in the last (or only)
        # batch.
        flush()
        return commit(outcome)


def exhaustive_min_dynamo_size(
    topo: Topology,
    num_colors: int,
    *,
    k: int = 0,
    rule: Optional[Rule] = None,
    max_seed_size: Optional[int] = None,
    monotone_only: bool = True,
    max_configs: int = 20_000_000,
    db: Optional["WitnessDB"] = None,
    ledger_scope: Optional["LedgerScope"] = None,
    settings: ExecutionSettings = ExecutionSettings(),
) -> Tuple[Optional[int], List[SearchOutcome]]:
    """Smallest seed size admitting a (monotone) k-dynamo, by exhaustion.

    Returns ``(size or None, per-size outcomes)``.  Sizes are tried in
    increasing order so the first hit is the exact minimum.  ``db`` is
    forwarded to every per-size :func:`exhaustive_dynamo_search`, so a
    populated witness database short-circuits the sizes that previously
    produced witnesses (witness-free sizes always re-run: absence is not
    recorded).  ``settings`` is handed to every per-size search.
    """
    n = topo.num_vertices
    cap = n if max_seed_size is None else min(max_seed_size, n)
    outcomes: List[SearchOutcome] = []
    for s in range(1, cap + 1):
        res = exhaustive_dynamo_search(
            topo,
            s,
            num_colors,
            k=k,
            rule=rule,
            monotone_only=monotone_only,
            max_configs=max_configs,
            db=db,
            ledger_scope=(
                None if ledger_scope is None else ledger_scope.child("size", s)
            ),
            settings=settings,
        )
        outcomes.append(res)
        if res.found_dynamo:
            return s, outcomes
    return None, outcomes


#: seed material accepted by :func:`random_dynamo_search`: a plain int,
#: SeedSequence entropy words, or a SeedSequence itself
SeedMaterial = Union[int, Sequence[int], np.random.SeedSequence]


def _seed_entropy(rng: SeedMaterial) -> List[int]:
    """Entropy words of seed material; anything else is a TypeError."""
    if isinstance(rng, np.random.SeedSequence):
        ent = rng.entropy
        words = [int(x) for x in ent] if isinstance(ent, (list, tuple)) else [int(ent)]
        # spawned children differ from their parent only by spawn_key;
        # dropping it would make spawn(2) drive identical searches
        words.extend(int(x) for x in rng.spawn_key)
        return words
    if isinstance(rng, (int, np.integer)):
        return [int(rng)]
    if isinstance(rng, (list, tuple)):
        return [int(x) for x in rng]
    raise TypeError(
        "random_dynamo_search needs seed material (an int, a sequence of "
        f"ints, or a SeedSequence), got {type(rng).__name__}: shards, the "
        "witness cache and the run ledger all derive from those words"
    )


def _random_search_shard(shard: tuple) -> List[Tuple[np.ndarray, bool]]:
    """Pool worker: one replica block of a sharded random search; returns
    the witnesses found.

    The shard is a small picklable tuple; the topology is rebuilt locally
    from its spec (tori) and the RNG is derived from the shard *index*,
    so any process count draws identical streams.  Draw order is
    (complements, then seed placements) per ``batch_size`` block.
    Compiled steppers never cross process boundaries: each worker fills
    its own stepper registry.
    """
    (
        spec,
        topo_obj,
        entropy,
        shard_idx,
        trials,
        seed_size,
        others,
        k,
        rule,
        max_rounds,
        batch_size,
        monotone_only,
    ) = shard
    topo = build_topology(spec, topo_obj)
    rng = np.random.default_rng(np.random.SeedSequence([*entropy, shard_idx]))
    others = np.asarray(others)
    n = topo.num_vertices
    witnesses: List[Tuple[np.ndarray, bool]] = []
    remaining = trials
    while remaining > 0:
        b = min(batch_size, remaining)
        remaining -= b
        batch = others[rng.integers(0, others.size, size=(b, n))].astype(np.int32)
        keys = rng.random((b, n))
        if seed_size:
            # the seed_size smallest keys per row, as a set of cells
            seeds = np.argpartition(keys, seed_size - 1, axis=1)[:, :seed_size]
            batch[np.arange(b)[:, None], seeds] = k
        res = run_batch(
            topo,
            batch,
            rule,
            max_rounds=max_rounds,
            target_color=k,
        )
        hits = np.flatnonzero(
            res.k_monochromatic & (res.monotone if monotone_only else True)
        )
        for idx in hits:
            witnesses.append((batch[idx].copy(), bool(res.monotone[idx])))
    return witnesses


def random_dynamo_search(
    topo: Topology,
    seed_size: int,
    num_colors: int,
    trials: int,
    rng: SeedMaterial,
    *,
    k: int = 0,
    rule: Optional[Rule] = None,
    max_rounds: Optional[int] = None,
    monotone_only: bool = False,
    db: Optional["WitnessDB"] = None,
    ledger_scope: Optional["LedgerScope"] = None,
    settings: ExecutionSettings = ExecutionSettings(),
) -> SearchOutcome:
    """Monte-Carlo falsification: random seeds + random complements.

    ``settings`` (an :class:`~repro.engine.context.ExecutionSettings`)
    configures execution; ``settings.batch_size`` defaults to 4096.
    ``settings.cancel`` is checked between shards and raises
    :class:`~repro.engine.parallel.RunCancelled`.

    ``settings.ledger`` opens a :class:`~repro.io.ledger.RunLedger` run
    for this search (``settings.resume`` re-opens a previous run): every
    completed shard is durably committed, completed shards replay
    bitwise on resume, and worker death is retried up to
    :data:`~repro.engine.parallel.DEFAULT_SHARD_RETRIES` times before a
    structured :class:`~repro.engine.parallel.ShardError` surfaces.
    ``ledger_scope`` is the nested form a parent driver (the census)
    passes instead — mutually exclusive with ``settings.ledger``.

    Used where exhaustion is infeasible; finding no witness in many trials
    is (only) statistical evidence for the lower bound — the benches report
    the trial count alongside.

    ``rng`` is seed *material* — an int, a sequence of entropy words, or
    a ``SeedSequence``; anything else (a ``numpy.random.Generator``
    included) raises :class:`TypeError`.  Trials split into shards of
    ``settings.shard_size`` (default: the batch size), shard ``i`` draws
    from ``SeedSequence([*entropy, i])``, and shards fan out over
    ``settings.processes`` pool workers (``0`` = inline, ``None`` = one
    per core).  Witnesses are reduced in shard order, so the outcome is
    **bitwise-identical at any process count** (it does depend on
    ``shard_size``/``batch_size``, which are part of the experiment
    definition).

    ``db`` plugs in a :class:`~repro.io.witnessdb.WitnessDB`.  The store
    is consulted first: a record whose search definition matches
    exactly (entropy words, trials, seed size, palette, batch/shard
    geometry, rule) returns immediately with ``cached=True`` and
    **skips the sharded pool entirely**.  After a fresh search,
    witnesses are recorded with their originating shard index in
    provenance.  Searches that find nothing record nothing and therefore
    always re-run.
    """
    rule = rule if rule is not None else SMPRule()
    batch_size = settings.resolved_batch_size(4096)
    shard_size = settings.shard_size
    ledger = settings.ledger
    validate_positive(batch_size, flag="batch_size")
    if shard_size is not None:
        validate_positive(shard_size, flag="shard_size")
    nproc = validate_processes(settings.processes)
    entropy = _seed_entropy(rng)
    n = topo.num_vertices
    if max_rounds is None:
        max_rounds = 4 * n + 16
    others = np.asarray([c for c in range(num_colors) if c != k][: num_colors - 1])
    outcome = SearchOutcome(seed_size=seed_size, examined=0, exhaustive=False)

    spec = topology_spec(topo)
    if ledger is not None and ledger_scope is not None:
        raise ValueError("pass either ledger or ledger_scope, not both")
    definition = None
    if spec is not None and (db is not None or ledger is not None):
        from ..io.witnessdb import rule_registry_name

        definition = {
            "mode": "random",
            "dynamics": DYNAMICS_VERSION,
            "rule": rule_registry_name(rule, num_colors),
            "kind": spec[0],
            "m": spec[1],
            "n": spec[2],
            "entropy": [int(x) for x in entropy],
            "trials": int(trials),
            "seed_size": int(seed_size),
            "colors": int(num_colors),
            "k": int(k),
            "monotone_only": bool(monotone_only),
            "batch_size": int(batch_size),
            "shard_size": int(shard_size if shard_size is not None else batch_size),
            "max_rounds": int(max_rounds),
        }
    top_scope = _open_top_ledger(ledger, settings.resume, definition)
    if top_scope is not None:
        ledger_scope = top_scope
    if db is not None and definition is not None:
        hit = _db_cached_outcome(db, definition, seed_size)
        if hit is not None:
            if top_scope is not None:
                top_scope.ledger.finish(top_scope.run_id)
            return hit

    counts = shard_counts(trials, shard_size if shard_size is not None else batch_size)
    shards = [
        (
            spec,
            None if spec is not None else topo,
            entropy,
            i,
            count,
            seed_size,
            others,
            k,
            rule,
            max_rounds,
            batch_size,
            monotone_only,
        )
        for i, count in enumerate(counts)
    ]
    checkpoint = None
    max_retries = 0
    if ledger_scope is not None:
        # each shard commits to the run ledger as it completes; a
        # resumed run replays committed shards bitwise, and worker
        # death gets the standard bounded retry (coordinate-derived
        # shard RNGs make recomputation bitwise-safe)
        checkpoint = ledger_scope.checkpoint(len(counts))
        max_retries = DEFAULT_SHARD_RETRIES
    shard_of: List[int] = []
    with settings.telemetry_scope("random-search"), obs.span(
        "phase",
        key="random-search",
        level="basic",
        trials=int(trials),
        shards=len(shards),
    ):
        for i, partial in enumerate(
            run_sharded(
                _random_search_shard,
                shards,
                processes=nproc,
                checkpoint=checkpoint,
                max_retries=max_retries,
                cancel=settings.cancel,
            )
        ):
            outcome.witnesses.extend(partial)
            shard_of.extend([i] * len(partial))
    outcome.examined = trials
    _db_record_outcome(
        db, definition, spec, rule, num_colors, k, outcome, "random",
        shard_of=shard_of,
    )
    if top_scope is not None:
        top_scope.ledger.finish(top_scope.run_id)
    return outcome
