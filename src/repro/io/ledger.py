"""The run ledger: crash-safe, resumable sharded runs.

A :class:`RunLedger` is an append-only JSON-lines journal that makes a
long census/search/sweep cheap to interrupt.  The contract has three
parts:

* **Run identity.**  A run is named by :func:`run_id` — a digest of its
  *definition*: the experiment parameters that determine every bit of
  output (dynamics version, grid, seed, trial counts, shard plan).
  Anything bitwise-invisible (process count) is excluded,
  so the same ledger resumes a run at any parallelism.  Wall-clock
  stamps, pids, and other ambient entropy are banned from definitions —
  they would make the "same" run unreachable after a crash (and
  ``reprolint`` RPL-D004 flags them as digest material).
* **Per-shard commits.**  As each unit of work completes, the driver
  appends a shard record — key, payload, payload digest — through
  :class:`~repro.io.jsonl.JsonlStore`, which flushes and fsyncs every
  append and heals a torn final line left by a crash mid-append.
* **Replay.**  On ``--resume`` the driver calls :meth:`RunLedger.begin`
  with the *same* definition, finds the run, and replays completed
  shards from their recorded payloads instead of recomputing.  Because
  shard results are pure functions of the definition (per-shard
  ``SeedSequence`` derivation), the resumed run is bitwise-identical to
  an uninterrupted one.

Payloads are JSON with two tagged extensions so numpy results round-trip
exactly: ``{"__ndarray__": {...}}`` and ``{"__tuple__": [...]}``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from .jsonl import JsonlStore, canonical_json

__all__ = [
    "LEDGER_SCHEMA",
    "LedgerError",
    "StaleRunError",
    "RunLedger",
    "LedgerScope",
    "ShardCheckpoint",
    "run_id",
    "encode_payload",
    "decode_payload",
    "open_ledger",
]

PathLike = Union[str, Path]

#: on-disk record schema; newer-schema files are refused line-by-line
LEDGER_SCHEMA = 1


class LedgerError(RuntimeError):
    """Misuse of or unrecoverable damage to a run ledger."""


class StaleRunError(LedgerError):
    """Resume refused: the recorded run predates the current dynamics.

    The ledger holds a run whose definition matches the request in every
    field *except* the pinned ``dynamics`` version.  Replaying its shard
    payloads under a different engine would silently mix outputs of two
    engines; the caller must recompute under a fresh ledger (or the same
    engine) instead.
    """


# -- payload codec -----------------------------------------------------


def encode_payload(value: object) -> object:
    """Encode ``value`` into plain JSON with numpy/tuple tags.

    Arrays carry dtype + shape + nested lists (JSON's exact float repr
    round-trips float64 bitwise); tuples are tagged so replay rebuilds
    the exact python shape drivers produced.
    """
    if isinstance(value, np.ndarray):
        return {
            "__ndarray__": {
                "dtype": str(value.dtype),
                "shape": list(value.shape),
                "data": value.tolist(),
            }
        }
    if isinstance(value, tuple):
        return {"__tuple__": [encode_payload(v) for v in value]}
    if isinstance(value, list):
        return [encode_payload(v) for v in value]
    if isinstance(value, dict):
        out: Dict[str, object] = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise LedgerError(
                    f"payload dict keys must be str, got {key!r}"
                )
            out[key] = encode_payload(item)
        return out
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise LedgerError(
        f"unsupported ledger payload type: {type(value).__name__}"
    )


def decode_payload(value: object) -> object:
    """Invert :func:`encode_payload` (bitwise for arrays and floats)."""
    if isinstance(value, dict):
        if set(value) == {"__ndarray__"}:
            spec = value["__ndarray__"]
        else:
            spec = None
        if isinstance(spec, dict):
            arr = np.array(spec["data"], dtype=np.dtype(str(spec["dtype"])))
            return arr.reshape([int(s) for s in spec["shape"]])
        if set(value) == {"__tuple__"}:
            items = value["__tuple__"]
            if isinstance(items, list):
                return tuple(decode_payload(v) for v in items)
        return {k: decode_payload(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_payload(v) for v in value]
    return value


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _plain_sequences(value: object) -> object:
    """Tuples become lists, recursively — definitions are identity
    material, so the python sequence flavour must not change the id."""
    if isinstance(value, (tuple, list)):
        return [_plain_sequences(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain_sequences(v) for k, v in value.items()}
    return value


def _canonical_def(definition: dict) -> dict:
    """Definition normalised to plain JSON (tuples become lists)."""
    encoded = encode_payload(_plain_sequences(dict(definition)))
    result = json.loads(canonical_json(encoded))
    assert isinstance(result, dict)
    return result


def run_id(definition: dict) -> str:
    """The run's identity: a digest of its canonical definition.

    Definitions must pin everything that determines output — including
    the ``dynamics`` engine version — and nothing else.  Two processes
    given the same definition compute the same id and therefore resume
    each other's runs.
    """
    return _digest(canonical_json(_canonical_def(definition)))


def _key_text(key: object) -> str:
    """Canonical text form of a shard key (the dedup/lookup identity)."""
    return canonical_json(encode_payload(key))


# -- the ledger --------------------------------------------------------


class RunLedger:
    """Append-only journal of run definitions and shard completions.

    Parameters
    ----------
    path:
        The JSON-lines file.  Missing file = empty ledger; the parent
        directory is created on first append.
    strict:
        Raise :class:`LedgerError` on the first corrupted *interior*
        line instead of collecting it into :attr:`corrupt`.  A torn
        final line is never an error in either mode — it is the
        expected artifact of a crash mid-append and is healed (truncated
        away) on the next append.
    """

    def __init__(self, path: PathLike, *, strict: bool = False):
        self.path = Path(path)
        self.strict = strict
        self._store = JsonlStore(self.path)
        #: run id -> canonical definition
        self._runs: Dict[str, dict] = {}
        #: run id -> canonical key text -> encoded payload
        self._shards: Dict[str, Dict[str, object]] = {}
        #: run ids with a finish record
        self._finished: Dict[str, int] = {}
        #: unreadable interior lines as (1-based line number, message)
        self.corrupt: List[Tuple[int, str]] = []
        self._load()

    # -- loading -------------------------------------------------------
    @property
    def torn_tail(self) -> Optional[Tuple[int, str]]:
        """(line number, message) of a healed-on-next-append torn tail."""
        return self._store.torn_tail

    def _load(self) -> None:
        for line in self._store.read_all():
            if line.error is not None:
                self._corrupt_line(line.lineno, line.error)
                continue
            try:
                self._dispatch(line.payload)
            except LedgerError as exc:
                self._corrupt_line(line.lineno, str(exc))

    def _corrupt_line(self, lineno: int, message: str) -> None:
        if self.strict:
            raise LedgerError(f"{self.path}:{lineno}: {message}")
        self.corrupt.append((lineno, message))

    def _dispatch(self, payload: object) -> None:
        if not isinstance(payload, dict):
            raise LedgerError("record is not a JSON object")
        schema = payload.get("schema")
        if not isinstance(schema, int) or schema > LEDGER_SCHEMA:
            raise LedgerError(
                f"record schema {schema!r} is newer than supported "
                f"schema {LEDGER_SCHEMA}"
            )
        rtype = payload.get("type")
        if rtype == "run":
            self._load_run(payload)
        elif rtype == "shard":
            self._load_shard(payload)
        elif rtype == "finish":
            self._load_finish(payload)
        else:
            raise LedgerError(f"unknown record type {rtype!r}")

    def _load_run(self, payload: dict) -> None:
        definition = payload.get("definition")
        rid = payload.get("run_id")
        if not isinstance(definition, dict) or not isinstance(rid, str):
            raise LedgerError("run record missing run_id/definition")
        if run_id(definition) != rid:
            raise LedgerError(
                f"run record {rid} does not match its definition digest"
            )
        self._runs.setdefault(rid, _canonical_def(definition))
        self._shards.setdefault(rid, {})

    def _load_shard(self, payload: dict) -> None:
        rid = payload.get("run_id")
        if not isinstance(rid, str) or rid not in self._runs:
            raise LedgerError(
                f"shard record for unknown run {rid!r} (run record must "
                "precede its shards)"
            )
        if "key" not in payload or "payload" not in payload:
            raise LedgerError("shard record missing key/payload")
        body = payload["payload"]
        if payload.get("digest") != _digest(canonical_json(body)):
            raise LedgerError("shard record payload digest mismatch")
        keytext = _key_text(payload["key"])
        existing = self._shards[rid].get(keytext)
        if existing is not None and existing != body:
            raise LedgerError(
                f"conflicting duplicate shard record for key {keytext}"
            )
        self._shards[rid][keytext] = body

    def _load_finish(self, payload: dict) -> None:
        rid = payload.get("run_id")
        if not isinstance(rid, str) or rid not in self._runs:
            raise LedgerError(f"finish record for unknown run {rid!r}")
        shards = payload.get("shards")
        if not isinstance(shards, int):
            raise LedgerError("finish record missing shard count")
        self._finished[rid] = shards

    # -- writing -------------------------------------------------------
    def _append(self, payload: dict) -> None:
        self._store.append(payload)

    def begin(self, definition: dict, *, resume: bool = False) -> str:
        """Open (or re-open) the run for ``definition``; return its id.

        A fresh definition appends a run record and starts empty.  If
        the ledger already holds this exact run, ``resume=True`` re-opens
        it for replay while ``resume=False`` raises — silently reusing a
        previous run's journal must be an explicit choice.  If the
        ledger holds a run that matches in everything *but* the pinned
        ``dynamics`` version, resuming raises :class:`StaleRunError`.
        """
        canon = _canonical_def(definition)
        if "dynamics" not in canon:
            raise LedgerError(
                "run definition must pin the 'dynamics' engine version"
            )
        rid = run_id(canon)
        if rid in self._runs:
            if not resume:
                raise LedgerError(
                    f"{self.path} already records run {rid}; pass "
                    "resume=True (CLI: --resume) to continue it"
                )
            obs.emit(
                "ledger-resume-replay",
                key=rid,
                shards=len(self._shards.get(rid, {})),
            )
            return rid
        if resume:
            for other_rid, other in self._runs.items():
                other_rest = {k: v for k, v in other.items() if k != "dynamics"}
                canon_rest = {k: v for k, v in canon.items() if k != "dynamics"}
                if (
                    other_rest == canon_rest
                    and other.get("dynamics") != canon.get("dynamics")
                ):
                    raise StaleRunError(
                        f"{self.path}: run {other_rid} was recorded under "
                        f"dynamics {other.get('dynamics')!r} but the engine "
                        f"is now {canon.get('dynamics')!r}; its shard "
                        "payloads cannot be replayed — rerun under a fresh "
                        "ledger"
                    )
        self._runs[rid] = canon
        self._shards.setdefault(rid, {})
        obs.emit("ledger-run-begin", key=rid, level="detailed")
        self._append(
            {
                "type": "run",
                "schema": LEDGER_SCHEMA,
                "run_id": rid,
                "definition": canon,
            }
        )
        return rid

    def record_shard(self, rid: str, key: object, payload: object) -> bool:
        """Durably commit one completed shard; ``False`` if already there.

        ``key`` names the unit of work within the run (any JSON-able
        value); ``payload`` is the unit's full result.  Re-recording the
        same key with the same payload is a no-op; a *different* payload
        for an already-committed key raises — under the determinism
        contract that can only mean the definition failed to pin
        something, and replaying either record would be a silent lie.
        """
        if rid not in self._runs:
            raise LedgerError(f"unknown run {rid!r}: begin() it first")
        body = encode_payload(payload)
        keytext = _key_text(key)
        existing = self._shards[rid].get(keytext)
        if existing is not None:
            if existing == json.loads(canonical_json(body)):
                return False
            raise LedgerError(
                f"shard {keytext} of run {rid} already committed with a "
                "different payload — non-deterministic worker or wrong "
                "definition"
            )
        canon_body = json.loads(canonical_json(body))
        self._shards[rid][keytext] = canon_body
        obs.count("ledger.shard-commit")
        self._append(
            {
                "type": "shard",
                "schema": LEDGER_SCHEMA,
                "run_id": rid,
                "key": encode_payload(key),
                "digest": _digest(canonical_json(canon_body)),
                "payload": canon_body,
            }
        )
        return True

    def finish(self, rid: str) -> bool:
        """Mark the run complete; ``False`` if already finished."""
        if rid not in self._runs:
            raise LedgerError(f"unknown run {rid!r}: begin() it first")
        if rid in self._finished:
            return False
        count = len(self._shards[rid])
        self._finished[rid] = count
        self._append(
            {
                "type": "finish",
                "schema": LEDGER_SCHEMA,
                "run_id": rid,
                "shards": count,
            }
        )
        return True

    # -- reading -------------------------------------------------------
    @property
    def runs(self) -> List[str]:
        """Run ids present in the ledger, in first-seen order."""
        return list(self._runs)

    def definition(self, rid: str) -> dict:
        """The canonical definition recorded for ``rid``."""
        if rid not in self._runs:
            raise LedgerError(f"unknown run {rid!r}")
        return dict(self._runs[rid])

    def finished(self, rid: str) -> bool:
        """Whether a finish record exists for ``rid``."""
        return rid in self._finished

    def shard_count(self, rid: str) -> int:
        """Number of committed shards for ``rid``."""
        return len(self._shards.get(rid, {}))

    def has_shard(self, rid: str, key: object) -> bool:
        """Whether ``key`` has a committed record under ``rid``."""
        return _key_text(key) in self._shards.get(rid, {})

    def get_shard(self, rid: str, key: object) -> Any:
        """The decoded payload committed for ``key`` under ``rid``.

        Raises :class:`LedgerError` when absent — pair with
        :meth:`has_shard` (payloads may legitimately be ``None``-free
        but the ledger does not reserve any sentinel).
        """
        shards = self._shards.get(rid, {})
        keytext = _key_text(key)
        if keytext not in shards:
            raise LedgerError(f"run {rid!r} has no shard {keytext}")
        return decode_payload(shards[keytext])


def open_ledger(ledger: Union[RunLedger, PathLike]) -> RunLedger:
    """Coerce a path-or-ledger argument into a live :class:`RunLedger`."""
    if isinstance(ledger, RunLedger):
        return ledger
    return RunLedger(ledger)


# -- driver-facing helpers ---------------------------------------------


@dataclass(frozen=True)
class LedgerScope:
    """A (ledger, run, key-prefix) view drivers thread through layers.

    The census opens one run, then hands each cell — and each per-size
    search inside the cell — a scope whose prefix extends the parent's,
    so every unit of work in the whole run commits under a distinct,
    stable key without any layer knowing the full key shape.
    """

    ledger: RunLedger
    run_id: str
    prefix: Tuple[object, ...] = ()

    def child(self, *parts: object) -> "LedgerScope":
        """A narrower scope with ``parts`` appended to the key prefix."""
        return replace(self, prefix=self.prefix + parts)

    def key(self, *parts: object) -> List[object]:
        """The full ledger key for ``parts`` under this scope."""
        return [*self.prefix, *parts]

    def has(self, *parts: object) -> bool:
        return self.ledger.has_shard(self.run_id, self.key(*parts))

    def get(self, *parts: object) -> Any:
        """Decoded payload for ``parts``, or ``None`` when absent."""
        key = self.key(*parts)
        if not self.ledger.has_shard(self.run_id, key):
            return None
        return self.ledger.get_shard(self.run_id, key)

    def put(self, payload: object, *parts: object) -> bool:
        """Commit ``payload`` under ``parts`` (see ``record_shard``)."""
        return self.ledger.record_shard(self.run_id, self.key(*parts), payload)

    def checkpoint_for(self, keys: Sequence[Sequence[object]]) -> "ShardCheckpoint":
        """A checkpoint over explicit per-shard key parts."""
        return ShardCheckpoint(
            ledger=self.ledger,
            run_id=self.run_id,
            keys=[self.key(*parts) for parts in keys],
        )

    def checkpoint(self, count: int, label: str = "shard") -> "ShardCheckpoint":
        """A checkpoint over ``count`` shards keyed ``(label, index)``."""
        return self.checkpoint_for([(label, i) for i in range(count)])


@dataclass(frozen=True)
class ShardCheckpoint:
    """What ``run_sharded`` needs to skip/commit shards, nothing more.

    ``keys`` is parallel to the shard list: ``keys[i]`` names shard
    ``i`` in the ledger.  The engine layer only calls :meth:`lookup`,
    :meth:`store`, and :meth:`key_of` — it never learns ledger record
    shapes.
    """

    ledger: RunLedger
    run_id: str
    keys: Sequence[object]

    def __len__(self) -> int:
        return len(self.keys)

    def key_of(self, index: int) -> object:
        return self.keys[index]

    def lookup(self, index: int) -> Tuple[bool, Any]:
        """(found, decoded payload) for shard ``index``."""
        key = self.keys[index]
        if not self.ledger.has_shard(self.run_id, key):
            return False, None
        return True, self.ledger.get_shard(self.run_id, key)

    def store(self, index: int, result: object) -> None:
        """Durably commit shard ``index``'s result."""
        self.ledger.record_shard(self.run_id, self.keys[index], result)
