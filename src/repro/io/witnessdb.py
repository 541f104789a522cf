"""Append-only, versioned on-disk store of dynamo witnesses.

The census/search drivers discover *witnesses* — minimal dynamo
configurations that certify size bounds — and before this module existed
they threw them away, so every CLI invocation recomputed hours of sharded
search.  :class:`WitnessDB` persists them:

* **storage** is a JSON-lines file (one record per line, plain JSON
  types, diffable, checked into ``results/witnesses.jsonl``); writes only
  ever *append*, and every append is flushed and fsynced (via
  :class:`repro.io.jsonl.JsonlStore`), so a record a caller saw recorded
  survives a ``kill -9`` and the file history is the discovery history.
  A crash *mid*-append leaves a partial final line; that torn tail is
  reported via :attr:`WitnessDB.torn_tail` (never as corruption) and is
  truncated away by the next append;
* **versioning** is two-fold: every line carries the serializer's
  ``schema`` number (legacy lines are upgraded on load, see
  :func:`repro.io.serialize.witness_from_dict`), and a record appended
  with an id already in the file *supersedes* the earlier line
  (last-wins on load) — that is how verification stamps land without
  rewriting history;
* the **in-memory index** keys witnesses by ``(rule, kind, m, n,
  colors)`` and cells by their type, key fields and experiment
  definition, so lookups
  are O(1) dict probes; a long-lived reader brings it up to date with
  :meth:`WitnessDB.catch_up`, which applies only the appended lines;
* **corrupted lines** never abort a load: they are collected into
  :attr:`WitnessDB.corrupt` as ``(line_number, message)`` pairs (pass
  ``strict=True`` to raise instead).

Three record types share the file:

``"witness"``
    A configuration + provenance + verification status
    (:class:`~repro.io.serialize.WitnessRecord`).  Provenance carries the
    *search definition* (mode, entropy words, trial counts, batch and
    shard geometry) under which the configuration was first discovered.
    Nothing about *how* the run executed (process count, telemetry)
    is recorded or keyed: those knobs are bitwise-invisible.

``"search"``
    One search invocation's summary: its definition, the ordered ids of
    the witnesses it recorded, and the ``examined``/``exhaustive``
    tallies.  This is what the consult-before-recompute cache in
    :mod:`repro.core.search` matches against — ids are listed per
    *definition*, so a witness first discovered by an earlier,
    different search (identical configuration, deduplicated by id)
    still counts toward every later search that finds it.

``"census-cell"``, ``"scale-free-cell"``, ``"async-summary"``
    One cached experiment cell (:class:`CellRecord`): the cell's type
    tag, its key fields, its experiment definition and its result row;
    a census cell also points at its witness record.  The type fixes
    the key fields — ``(kind, n)``, ``(strategy, seed_fraction)`` and
    ``(label,)`` — and one id derivation covers all three.  This is
    what lets ``repro-dynamo census --db`` (and ``scale-free`` /
    ``async``) skip the computation entirely on a re-run: negative
    scans (sizes searched without a witness) are part of a census row,
    so the cache reproduces the row bitwise without holding non-witness
    records.

Re-verification (:func:`verify_witness`) replays a stored configuration
through the batched engine and checks it still reaches the
``k``-monochromatic fixed point (and monotonically, when the record
claims so); :meth:`WitnessDB.verify` stamps the outcome back into the
store.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

from .. import obs
from ..engine.batch import run_batch
from ..rules import make_rule
from ..rules.base import Rule

from ..topology.tori import make_torus
from .jsonl import JsonlStore, ScannedLine
from .serialize import (
    WITNESS_SCHEMA,
    WitnessFormatError,
    WitnessRecord,
    witness_from_dict,
    witness_to_dict,
)

__all__ = [
    "CellRecord",
    "SearchRecord",
    "WitnessDB",
    "WitnessVerification",
    "rule_registry_name",
    "verify_witness",
]

PathLike = Union[str, Path]

#: a decoded store record (see :func:`_decoded`, :meth:`WitnessDB._probed`)
_Rec = TypeVar("_Rec", "CellRecord", "SearchRecord")

#: class-name -> registry-name map used when recording witnesses found
#: under a rule instance (falls back to the class name for custom rules)
_RULE_CLASS_NAMES = {
    "SMPRule": "smp",
    "ReverseSimpleMajority": "majority",
    "ReverseStrongMajority": "strong-majority",
    "GeneralizedPluralityRule": "plurality",
    "OrderedIncrementRule": "ordered",
    "LinearThresholdRule": "threshold",
}


def _state_matches(a: Rule, b: Rule) -> bool:
    """Instance-state equality, numpy-safe, ignoring lazy caches."""
    da, db = vars(a), vars(b)
    if set(da) != set(db):
        return False
    for key, va in da.items():
        if key.startswith("_cached"):
            continue
        vb = db[key]
        if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
            if not np.array_equal(np.asarray(va), np.asarray(vb)):
                return False
        elif va is not vb and va != vb:
            return False
    return True


def rule_registry_name(rule: Rule, num_colors: Optional[int] = None) -> str:
    """Registry name of a rule instance (``"smp"``), or its class name.

    Witness records store rules by registry name so
    :func:`verify_witness` can rebuild them with
    :func:`repro.rules.make_rule`.  The name is only used when the
    rebuild is *faithful*: pass ``num_colors`` and a rule constructed
    with non-default options (a custom tie policy, threshold spec, ...)
    falls back to its class name — such records fail verification with
    a clear message instead of silently replaying different dynamics.
    Custom rules outside the registry always store their class name.
    """
    name = _RULE_CLASS_NAMES.get(type(rule).__name__)
    if name is None:
        return rule.name()
    if num_colors is not None:
        try:
            candidate = make_rule(name, num_colors=num_colors)
        except ValueError:
            return rule.name()
        if type(candidate) is not type(rule) or not _state_matches(rule, candidate):
            return rule.name()
    return name


def _canonical(definition: Optional[dict]) -> Optional[dict]:
    """JSON-normalize a definition dict so dict equality matches what a
    load from disk produces (tuples -> lists, numpy ints -> ints)."""
    if definition is None:
        return None
    return json.loads(json.dumps(definition, sort_keys=True))


def _tagged_id(tag: str, *parts: object) -> str:
    import hashlib

    identity = json.dumps([tag, *parts], sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(identity.encode()).hexdigest()[:12]


def _search_id(definition: dict) -> str:
    return _tagged_id("search", _canonical(definition))


#: cell type -> its key fields, in id-hash order, with their coercions
_CELL_KEYS: Dict[str, Tuple[Tuple[str, Callable[[Any], object]], ...]] = {
    "census-cell": (("kind", str), ("n", int)),
    "scale-free-cell": (("strategy", str), ("seed_fraction", float)),
    "async-summary": (("label", str),),
}


def _cell_key(type: str, key: Dict[str, object]) -> Dict[str, object]:
    """The type's key fields, coerced, in id-hash order."""
    return {name: coerce(key[name]) for name, coerce in _CELL_KEYS[type]}


def _cell_id(type: str, key: Dict[str, object], definition: dict) -> str:
    return _tagged_id(type, *_cell_key(type, key).values(), _canonical(definition))


@dataclass
class CellRecord:
    """One cached experiment cell: key fields + definition + row payload.

    ``type`` names the experiment the cell belongs to and fixes its key
    fields (:data:`_CELL_KEYS`):

    ``"census-cell"`` (``kind``, ``n``)
        a below-bound census row (:class:`~repro.experiments.census.CensusRow`)
        plus a pointer to its witness record (``witness_id``; ``None``
        when the cell certified nothing);
    ``"scale-free-cell"`` (``strategy``, ``seed_fraction``)
        one point of :func:`repro.ext.scale_free.scale_free_takeover_census`;
    ``"async-summary"`` (``label``)
        the :class:`repro.ext.asynchrony.AsyncRobustness` statistics of
        one construction.

    Key fields read as attributes (``cell.kind``, ``cell.strategy``).
    Cache hits require an exact definition match; the process count
    never joins it, it is bitwise-invisible to outcomes.
    """

    type: str
    #: the type's key fields, e.g. ``{"kind": "mesh", "n": 4}``
    key: Dict[str, object]
    #: the cell's experiment definition (seed, trial counts, geometry,
    #: dynamics version) — cache hits require an exact match
    definition: dict
    #: the cell's result fields, as a plain dict
    row: dict
    witness_id: Optional[str] = None
    schema: int = WITNESS_SCHEMA
    id: str = ""

    def __post_init__(self) -> None:
        if self.type not in _CELL_KEYS:
            raise ValueError(f"unknown cell type {self.type!r}")
        self.key = _cell_key(self.type, self.key)
        self.definition = _canonical(self.definition)
        self.row = _canonical(self.row)
        if not isinstance(self.row, dict):
            raise ValueError("cell row must be an object")
        if not self.id:
            self.id = _cell_id(self.type, self.key, self.definition)

    def __getattr__(self, name: str) -> Any:
        key = self.__dict__.get("key") or {}
        if name in key:
            return key[name]
        raise AttributeError(name)


def _cell_to_dict(cell: CellRecord) -> dict:
    payload = {
        "type": cell.type,
        "schema": int(cell.schema),
        "id": cell.id,
        **cell.key,
        "definition": cell.definition,
        "row": cell.row,
    }
    if cell.type == "census-cell":
        payload["witness_id"] = cell.witness_id
    return payload


def _decoded(payload: dict, build: Callable[[], _Rec]) -> _Rec:
    """Build a record from a loaded line, checking schema and stored id."""
    what = payload.get("type")
    schema = payload.get("schema")
    if not isinstance(schema, int) or schema > WITNESS_SCHEMA:
        raise WitnessFormatError(f"bad {what} schema {schema!r}")
    try:
        rec = build()
    except (KeyError, TypeError, ValueError) as exc:
        raise WitnessFormatError(f"malformed {what} record: {exc}") from None
    if not isinstance(rec.definition, dict):
        raise WitnessFormatError(f"{what} definition must be an object")
    stored = payload.get("id", "")
    if stored and stored != rec.id:
        raise WitnessFormatError(
            f"stored {what} id {stored!r} does not match {rec.id!r}"
        )
    return rec


def _cell_from_dict(payload: dict) -> CellRecord:
    return _decoded(
        payload,
        lambda: CellRecord(
            type=payload["type"],
            key=payload,
            definition=payload["definition"],
            row=payload["row"],
            witness_id=payload.get("witness_id"),
        ),
    )


@dataclass
class SearchRecord:
    """One search invocation's summary: definition -> recorded witnesses.

    The cache key of the consult-before-recompute path.  ``witness_ids``
    is ordered (recording order), and lists the ids *this* definition
    produced even when the configurations themselves were first appended
    by an earlier search — witness rows deduplicate by id, search
    summaries never do.
    """

    #: the exact search definition (every parameter that influences the
    #: outcome); cache hits require an exact match
    definition: dict
    #: recorded witness ids, in recording order (capped representatives)
    witness_ids: List[str] = field(default_factory=list)
    #: configurations the original search examined
    examined: int = 0
    #: the original search covered every configuration
    exhaustive: bool = False
    #: total witnesses the original search found (>= len(witness_ids))
    witnesses_found: int = 0
    schema: int = WITNESS_SCHEMA
    id: str = ""

    def __post_init__(self) -> None:
        self.definition = _canonical(self.definition)
        self.witness_ids = [str(w) for w in self.witness_ids]
        self.examined = int(self.examined)
        self.exhaustive = bool(self.exhaustive)
        self.witnesses_found = int(self.witnesses_found)
        if not self.id:
            self.id = _search_id(self.definition)


def _search_to_dict(rec: SearchRecord) -> dict:
    return {
        "type": "search",
        "schema": int(rec.schema),
        "id": rec.id,
        "definition": rec.definition,
        "witness_ids": rec.witness_ids,
        "examined": rec.examined,
        "exhaustive": rec.exhaustive,
        "witnesses_found": rec.witnesses_found,
    }


def _search_from_dict(payload: dict) -> SearchRecord:
    return _decoded(
        payload,
        lambda: SearchRecord(
            definition=payload["definition"],
            witness_ids=payload.get("witness_ids") or [],
            examined=payload.get("examined", 0),
            exhaustive=payload.get("exhaustive", False),
            witnesses_found=payload.get("witnesses_found", 0),
        ),
    )


@dataclass
class WitnessVerification:
    """Outcome of replaying one witness through the engine."""

    ok: bool
    reason: str = ""
    #: rounds the replay took (``-1`` when it never ran)
    rounds: int = -1


def verify_witness(
    record: WitnessRecord,
    *,
    max_rounds: Optional[int] = None,
) -> WitnessVerification:
    """Replay a stored witness through :func:`repro.engine.batch.run_batch`.

    Rebuilds the torus and rule from the record's key fields, runs the
    stored configuration as a one-row batch, and checks that it reaches
    the ``k``-monochromatic fixed point — monotonically, when the record
    claims monotonicity.  Structural problems (bad torus kind, unknown
    rule name, length mismatch) fail with a reason rather than raising,
    so ``witness verify --all`` can report per-record verdicts.

    Parameters
    ----------
    record:
        The witness to replay.
    max_rounds:
        Round cap for the replay; defaults to the search drivers'
        ``4 * N + 16``.

    Returns
    -------
    :class:`WitnessVerification` with ``ok``, a failure ``reason``, and
    the replay's round count.
    """
    try:
        topo = make_torus(record.kind, record.m, record.n)
    except (KeyError, ValueError) as exc:
        return WitnessVerification(False, f"cannot rebuild topology: {exc}")
    if len(record.configuration) != topo.num_vertices:
        return WitnessVerification(
            False,
            f"configuration length {len(record.configuration)} != "
            f"{topo.num_vertices} vertices",
        )
    try:
        rule = make_rule(record.rule, num_colors=record.colors)
    except ValueError as exc:
        return WitnessVerification(False, str(exc))
    if max_rounds is None:
        max_rounds = 4 * topo.num_vertices + 16
    res = run_batch(
        topo,
        record.colors_array()[None, :],
        rule,
        max_rounds=max_rounds,
        target_color=record.k,
    )
    rounds = int(res.rounds[0])
    if not bool(res.k_monochromatic[0]):
        return WitnessVerification(
            False,
            f"did not reach the {record.k}-monochromatic fixed point "
            f"within {max_rounds} rounds",
            rounds,
        )
    if record.monotone and not bool(res.monotone[0]):
        return WitnessVerification(
            False, "record claims monotone but the replay recolored back", rounds
        )
    return WitnessVerification(True, "", rounds)


class WitnessDB:
    """The append-only witness store with an in-memory index.

    Parameters
    ----------
    path:
        The JSON-lines file.  A missing file is an empty store; the
        parent directory is created on first append.
    strict:
        Raise :class:`~repro.io.serialize.WitnessFormatError` on the
        first corrupted line instead of collecting it into
        :attr:`corrupt`.
    """

    def __init__(self, path: PathLike, *, strict: bool = False):
        self.path = Path(path)
        self.strict = strict
        self._store = JsonlStore(self.path)
        #: witness records by id, last-appended-wins
        self._records: Dict[str, WitnessRecord] = {}
        #: cell records by type, then id
        self._cells: Dict[str, Dict[str, CellRecord]] = {t: {} for t in _CELL_KEYS}
        #: search summaries by id
        self._searches: Dict[str, SearchRecord] = {}
        #: index: (rule, kind, m, n, colors) -> [witness ids]
        self._by_key: Dict[Tuple[str, str, int, int, int], List[str]] = {}
        #: unreadable lines as (1-based line number, message)
        self.corrupt: List[Tuple[int, str]] = []
        #: count of legacy-format lines upgraded during load
        self.legacy_upgraded = 0
        if self.path.exists():
            self._apply(self._store.read_all())

    # -- loading -------------------------------------------------------
    @property
    def torn_tail(self) -> Optional[Tuple[int, str]]:
        """A partial final line left by a crash mid-append, or ``None``.

        Unlike :attr:`corrupt` this is not an error in strict mode: the
        torn bytes never formed a committed record and are truncated
        away by the next append.
        """
        return self._store.torn_tail

    def catch_up(self) -> bool:
        """Apply the lines appended to the file since it was last read.

        Returns ``False``, leaving the index untouched, when the file
        changed in any way other than an append (see
        :meth:`~repro.io.jsonl.JsonlStore.scan_appended`); only a fresh
        ``WitnessDB(path)`` is then exact.  After ``True`` the index
        equals a fresh load of the file: superseding lines keep their
        record's first position, and corrupt lines and the torn tail
        carry their file line numbers.
        """
        lines = self._store.scan_appended()
        if lines is None:
            return False
        self._apply(lines)
        return True

    def _apply(self, lines: Iterable[ScannedLine]) -> None:
        for scanned in lines:
            lineno = scanned.lineno
            if scanned.error is not None:
                self._corrupt_line(lineno, scanned.error)
                continue
            payload = scanned.payload
            try:
                if isinstance(payload, dict) and payload.get("type") in _CELL_KEYS:
                    cell = _cell_from_dict(payload)
                    self._cells[cell.type][cell.id] = cell
                elif isinstance(payload, dict) and payload.get("type") == "search":
                    rec = _search_from_dict(payload)
                    self._searches[rec.id] = rec
                else:
                    record = witness_from_dict(payload)
                    if record.method == "legacy":
                        self.legacy_upgraded += 1
                    self._index(record)
            except WitnessFormatError as exc:
                self._corrupt_line(lineno, str(exc))

    def _corrupt_line(self, lineno: int, message: str) -> None:
        if self.strict:
            raise WitnessFormatError(f"{self.path}:{lineno}: {message}")
        self.corrupt.append((lineno, message))

    def _index(self, record: WitnessRecord) -> None:
        fresh = record.id not in self._records
        self._records[record.id] = record
        if fresh:
            self._by_key.setdefault(record.key, []).append(record.id)

    # -- writing -------------------------------------------------------
    def _append(self, payload: dict) -> None:
        # Durable append (flush + fsync) with torn-tail healing; keeps
        # the store's historical formatting (sorted keys, spaced
        # separators) so existing files grow byte-consistently.
        obs.count("witnessdb.append")
        self._store.append(
            payload, dumps=lambda p: json.dumps(p, sort_keys=True)
        )

    @staticmethod
    def _probed(cache: str, record: Optional[_Rec]) -> Optional[_Rec]:
        # cache-effectiveness telemetry on the consult-before-recompute
        # probes; the record itself is never touched
        if record is None:
            obs.count("witnessdb.cache-miss")
        else:
            obs.count("witnessdb.cache-hit")
            obs.emit("cache-serve", key=cache, level="detailed")
        return record

    def add(self, record: WitnessRecord, *, replace: bool = False) -> bool:
        """Record a witness; returns ``True`` when a line was appended.

        A witness whose id is already present is left untouched
        (first-wins — re-discovering a known configuration through a
        different search must not churn the shipped catalog) unless
        ``replace=True``, which appends a superseding line; a verified
        stamp on the existing record survives either way (the caller's
        record object is never mutated).
        """
        existing = self._records.get(record.id)
        if existing is not None:
            if not replace:
                return False
            merged = dataclasses.replace(
                record, verified=record.verified or existing.verified
            )
            if witness_to_dict(merged) == witness_to_dict(existing):
                return False
            record = merged
        self._index(record)
        self._append(witness_to_dict(record))
        return True

    def add_cell(self, cell: CellRecord) -> bool:
        """Record a cell of any type; identical cells are not re-appended."""
        cells = self._cells[cell.type]
        existing = cells.get(cell.id)
        if existing is not None and _cell_to_dict(existing) == _cell_to_dict(cell):
            return False
        cells[cell.id] = cell
        self._append(_cell_to_dict(cell))
        return True

    def add_search(self, rec: SearchRecord) -> bool:
        """Record a search summary; identical summaries are not re-appended."""
        existing = self._searches.get(rec.id)
        if existing is not None and _search_to_dict(existing) == _search_to_dict(rec):
            return False
        self._searches[rec.id] = rec
        self._append(_search_to_dict(rec))
        return True

    # -- querying ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[WitnessRecord]:
        return iter(self._records.values())

    @property
    def cells(self) -> List[CellRecord]:
        """The census cells (the other cell types have their own views)."""
        return list(self._cells["census-cell"].values())

    @property
    def scale_free_cells(self) -> List[CellRecord]:
        return list(self._cells["scale-free-cell"].values())

    @property
    def async_summaries(self) -> List[CellRecord]:
        return list(self._cells["async-summary"].values())

    @property
    def searches(self) -> List[SearchRecord]:
        return list(self._searches.values())

    def get(self, witness_id: str) -> Optional[WitnessRecord]:
        """Exact-id lookup."""
        return self._records.get(witness_id)

    def resolve(self, id_prefix: str) -> WitnessRecord:
        """Unique-prefix lookup (the CLI's ``witness show a1b2`` path).

        Raises :class:`KeyError` when the prefix matches zero or several
        records.
        """
        matches = [r for i, r in self._records.items() if i.startswith(id_prefix)]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise KeyError(f"no witness with id {id_prefix!r} in {self.path}")
        raise KeyError(
            f"id prefix {id_prefix!r} is ambiguous "
            f"({', '.join(r.id for r in matches[:4])}...)"
        )

    def witnesses(
        self,
        *,
        rule: Optional[str] = None,
        kind: Optional[str] = None,
        m: Optional[int] = None,
        n: Optional[int] = None,
        colors: Optional[int] = None,
        method: Optional[str] = None,
        verified: Optional[bool] = None,
    ) -> List[WitnessRecord]:
        """Filtered view of the witness records, in insertion order."""
        out = []
        for rec in self._records.values():
            if rule is not None and rec.rule != rule:
                continue
            if kind is not None and rec.kind != kind:
                continue
            if m is not None and rec.m != m:
                continue
            if n is not None and rec.n != n:
                continue
            if colors is not None and rec.colors != colors:
                continue
            if method is not None and rec.method != method:
                continue
            if verified is not None and rec.verified != verified:
                continue
            out.append(rec)
        return out

    def lookup(
        self, rule: str, kind: str, m: int, n: int, colors: int
    ) -> List[WitnessRecord]:
        """All witnesses under one index key, in insertion order."""
        ids = self._by_key.get((rule, kind, int(m), int(n), int(colors)), [])
        return [self._records[i] for i in ids]

    def best(
        self, rule: str, kind: str, m: int, n: int, colors: int
    ) -> Optional[WitnessRecord]:
        """Smallest-seed *monotone* witness under a key, or ``None``."""
        candidates = [
            r for r in self.lookup(rule, kind, m, n, colors) if r.monotone
        ]
        return min(candidates, key=lambda r: r.seed_size, default=None)

    def find_search(self, definition: dict) -> Optional[SearchRecord]:
        """Search-summary cache probe (exact definition match).

        This is the consult-before-recompute probe used by
        :func:`repro.core.search.exhaustive_dynamo_search` and
        :func:`repro.core.search.random_dynamo_search`: the definition
        dict pins every parameter that influences the search outcome
        (mode, rule, topology, seed material, trial counts, batch and
        shard geometry), so a hit reproduces the original outcome's
        flags and (recorded) witnesses exactly.
        """
        return self._probed("search", self._searches.get(_search_id(definition)))

    def find_cell(
        self, type: str, definition: dict, **key: object
    ) -> Optional[CellRecord]:
        """Cell cache probe (exact key and experiment-definition match).

        ``key`` names the type's key fields, e.g.
        ``find_cell("census-cell", definition, kind="mesh", n=4)``.
        """
        cell = self._cells[type].get(_cell_id(type, key, definition))
        return self._probed(type, cell)

    # -- verification --------------------------------------------------
    def verify(
        self,
        record_or_id: Union[WitnessRecord, str],
        *,
        max_rounds: Optional[int] = None,
        update: bool = True,
    ) -> WitnessVerification:
        """Re-verify one witness and (by default) stamp the outcome.

        A changed verification status is persisted by appending a
        superseding record line — the file stays append-only and the
        stamp survives reloads.  Stamping is idempotent: re-verifying an
        already-verified witness appends nothing.  A record object that
        is *not* in the store is replayed but never stamped (``add`` it
        first) — verification must not insert new rows into a catalog.
        """
        record = (
            record_or_id
            if isinstance(record_or_id, WitnessRecord)
            else self.resolve(record_or_id)
        )
        outcome = verify_witness(record, max_rounds=max_rounds)
        stored = record.id in self._records
        if update and stored and record.verified != outcome.ok:
            stamped = WitnessRecord(
                **{
                    **{
                        f: getattr(record, f)
                        for f in (
                            "rule", "kind", "m", "n", "colors", "k",
                            "seed_size", "monotone", "configuration",
                            "method", "provenance",
                        )
                    },
                    "verified": outcome.ok,
                }
            )
            # direct supersede: skip the verified-stamp merge in add()
            self._index(stamped)
            self._append(witness_to_dict(stamped))
        return outcome
