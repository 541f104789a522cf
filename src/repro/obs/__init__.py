"""Zero-perturbation telemetry: structured run events on a side channel.

Long sharded runs (census, search, sweeps) had no window into where
time went — a slow shard, a flaky worker burning retries, a cold plan
cache — beyond ad-hoc stderr prints.  This package records all of it as
a schema-versioned JSON-lines event stream **without perturbing the
run**: the side-channel discipline the run ledger established for
durability, applied to observability.

The contract, enforced by ``tests/test_obs.py`` and reprolint RPL-O001:

* **Never stdout.**  Events go to the ``--telemetry PATH`` side file
  (and a transient ``PATH.spool/`` directory while the run is live);
  a run with telemetry on produces byte-identical stdout, witness-db,
  and ledger contents to a run without it, at any process count.
* **Never identity material.**  Telemetry settings and telemetry values
  (timestamps, durations, counters) are excluded from run ids, cache
  keys, and witness definitions exactly as the process count is.
  RPL-O001 statically forbids ``repro.obs`` values from reaching digest
  sinks or record payload codecs.
* **Deterministic merge.**  Pool workers append events to per-worker
  spool files; at session close the parent merges every spool file into
  the final stream **sorted by stable keys** (event name, key, per-process
  sequence, then the event's stable field content) — never by arrival
  order — so the merged stream is byte-identical however worker output
  raced.  Volatile fields (:data:`VOLATILE_FIELDS`: wall-clock stamps,
  ``perf_counter`` durations, pids) participate only as final
  tie-breakers between otherwise-identical events.

Event taxonomy (``kind`` field):

``meta``
    First line of a finalized stream: schema, command, level, context,
    session status, spool accounting.
``span``
    A timed region — ``run`` (whole command), ``phase`` (driver stage),
    ``cell`` (census/scale-free cell), ``pool`` (one ``run_sharded``
    fan-out), ``shard`` (one shard execution), ``compile`` (kernel
    compile).  Carries ``t_wall`` (start stamp) + ``perf_s``
    (duration).
``event``
    A point occurrence — ``shard-retry``, ``pool-rebuild``,
    ``shard-replay``, ``ledger-resume-replay``, ``torn-tail-heal``, ...
``counter``
    An aggregatable delta — ``plan-cache.hit``, ``witnessdb.append``,
    ``ledger.shard-commit``, ... (the report sums them).

Levels gate emission volume: ``basic`` (run/phase spans, counters,
fault events) < ``detailed`` (default: per-shard and per-compile spans)
< ``debug`` (dispatch events, per-step kernel timing).

The module-level API (:func:`count`, :func:`emit`, :func:`span`,
:func:`enabled`) is a no-op costing one attribute load and one ``is
None`` test while no session is active, so instrumented hot paths pay
nothing when telemetry is off.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from types import TracebackType
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
)

__all__ = [
    "TELEMETRY_SCHEMA",
    "LEVELS",
    "DEFAULT_LEVEL",
    "VOLATILE_FIELDS",
    "TelemetryConfig",
    "TelemetrySession",
    "active_session",
    "count",
    "emit",
    "enabled",
    "merge_spool_lines",
    "pool_initializer",
    "shard_call",
    "span",
    "stable_fields",
    "telemetry_session",
    "validate_level",
]

#: stream schema version; bump when the record shape changes
TELEMETRY_SCHEMA = 1

#: emission levels, least to most verbose
LEVELS: Tuple[str, ...] = ("basic", "detailed", "debug")

DEFAULT_LEVEL = "detailed"

#: per-event fields that vary run-to-run even when the work is identical
#: (wall-clock stamps, perf-counter durations, process ids).  Consumers
#: comparing streams for determinism strip exactly these; the merge sort
#: uses them only as final tie-breakers.
VOLATILE_FIELDS: Tuple[str, ...] = ("t_wall", "perf_s", "pid")

S = TypeVar("S")
R = TypeVar("R")


def validate_level(level: str) -> str:
    """Validate a telemetry level name (CLI flags and API share this)."""
    if level not in LEVELS:
        raise ValueError(
            f"telemetry level must be one of {', '.join(LEVELS)}, "
            f"got {level!r}"
        )
    return level


def _rank(level: str) -> int:
    return LEVELS.index(validate_level(level))


def _jsonable(value: object) -> object:
    """Best-effort plain-JSON form of an event key/field.

    Telemetry is never identity material, so this is deliberately lax
    where :func:`repro.io.ledger.encode_payload` is strict: tuples
    become lists, numpy scalars their python values, and anything else
    its ``repr`` — an event must never fail a run."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return _jsonable(item())
        except (TypeError, ValueError):
            pass
    return repr(value)


def _canonical(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def stable_fields(record: Dict[str, Any]) -> Dict[str, Any]:
    """The record minus its :data:`VOLATILE_FIELDS` (determinism view)."""
    return {k: v for k, v in record.items() if k not in VOLATILE_FIELDS}


def _sort_key(record: Dict[str, Any]) -> Tuple[str, str, int, str, str]:
    """Total order over events that never consults arrival order.

    Primary: (name, key, per-process seq, stable content).  The full
    canonical line — volatile fields included — is the final tie-break,
    so merging the same spool files in any order is byte-identical.
    """
    return (
        str(record.get("name", "")),
        _canonical(_jsonable(record.get("key"))),
        int(record.get("seq", 0)),
        _canonical(stable_fields(record)),
        _canonical(record),
    )


def merge_spool_lines(spools: List[List[str]]) -> Tuple[List[str], int]:
    """Merge per-process spool line lists into the final event order.

    Returns ``(sorted canonical lines, dropped)`` where ``dropped``
    counts unparseable lines (a worker killed mid-append leaves a torn
    line; telemetry tolerates it rather than failing the run).  The
    output is independent of the order of ``spools`` *and* of the
    interleaving within the input — the deterministic-merge contract.
    """
    records: List[Dict[str, Any]] = []
    dropped = 0
    for lines in spools:
        for line in lines:
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                dropped += 1
                continue
            if isinstance(payload, dict):
                records.append(payload)
            else:
                dropped += 1
    records.sort(key=_sort_key)
    return [_canonical(r) for r in records], dropped


@dataclass(frozen=True)
class TelemetryConfig:
    """Picklable description of a live session's side channel.

    Travels to pool workers through the pool initializer (never through
    shard tuples, so shard descriptions — which are identity material —
    are untouched by telemetry).
    """

    #: the session's spool directory (workers append here)
    spool_dir: str
    #: emission level name (see :data:`LEVELS`)
    level: str = DEFAULT_LEVEL


class _Emitter:
    """Shared event-writing machinery of parent sessions and workers."""

    def __init__(self, spool_path: Path, level: str):
        self.spool_path = spool_path
        self.level_rank = _rank(level)
        self.level = level
        self._fh: Optional[Any] = None
        self._seq = 0
        self._counters: Dict[str, int] = {}

    def wants(self, level: str) -> bool:
        return _rank(level) <= self.level_rank

    def write(self, record: Dict[str, Any]) -> None:
        if self._fh is None:
            self.spool_path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.spool_path.open("a", encoding="utf-8")
        self._fh.write(_canonical(record) + "\n")
        self._fh.flush()

    def record(
        self,
        kind: str,
        name: str,
        key: object,
        fields: Dict[str, Any],
    ) -> None:
        record: Dict[str, Any] = {
            "schema": TELEMETRY_SCHEMA,
            "kind": kind,
            "name": name,
            "key": _jsonable(key),
            "seq": self._seq,
            "pid": os.getpid(),
        }
        self._seq += 1
        for field, value in fields.items():
            record[field] = _jsonable(value)
        self.write(record)

    def bump(self, name: str, n: int) -> None:
        self._counters[name] = self._counters.get(name, 0) + n

    def flush_counters(self, key: object = None) -> None:
        """Emit accumulated counter deltas and reset them.

        Workers flush after every shard (pool processes have no clean
        exit hook); the parent flushes at session close.
        """
        if not self._counters:
            return
        deltas, self._counters = self._counters, {}
        for name in sorted(deltas):
            self.record(
                "counter", name, key, {"n": deltas[name], "t_wall": time.time()}
            )

    def close_file(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class TelemetrySession(_Emitter):
    """The parent-process session owning one telemetry stream.

    Opened by :func:`telemetry_session` (or :meth:`start`), it spools
    events to ``<path>.spool/main.jsonl`` while the run is live, then on
    :meth:`close` merges every spool file (its own plus any worker
    files) into the final stream at ``path``: one ``meta`` line followed
    by the deterministically sorted events.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        level: str = DEFAULT_LEVEL,
        command: str = "",
        context: Optional[Dict[str, Any]] = None,
    ):
        self.path = Path(path)
        self.spool_dir = Path(str(path) + ".spool")
        super().__init__(self.spool_dir / "main.jsonl", level)
        self.command = command
        self.context = dict(context or {})
        self._t0_wall = 0.0
        self._t0_perf = 0.0
        self._closed = False

    @property
    def config(self) -> TelemetryConfig:
        """The picklable worker-side view of this session."""
        return TelemetryConfig(spool_dir=str(self.spool_dir), level=self.level)

    def start(self) -> "TelemetrySession":
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        # stale spool files from a previous crashed session under the
        # same path would pollute the merge; clear them
        for stray in self.spool_dir.glob("*.jsonl"):
            stray.unlink()
        self._t0_wall = time.time()
        self._t0_perf = time.perf_counter()
        return self

    def close(self, status: str = "ok") -> None:
        """Finalize the stream: run span, counters, deterministic merge."""
        if self._closed:
            return
        self._closed = True
        self.record(
            "span",
            "run",
            None,
            {
                "command": self.command,
                "t_wall": self._t0_wall,
                "perf_s": time.perf_counter() - self._t0_perf,
            },
        )
        self.flush_counters()
        self.close_file()
        spools: List[List[str]] = []
        spool_files = sorted(self.spool_dir.glob("*.jsonl"))
        for spool in spool_files:
            spools.append(spool.read_text(encoding="utf-8").splitlines())
        lines, dropped = merge_spool_lines(spools)
        meta = {
            "schema": TELEMETRY_SCHEMA,
            "kind": "meta",
            "name": "telemetry",
            "command": self.command,
            "level": self.level,
            "status": status,
            "context": _jsonable(self.context),
            "events": len(lines),
            "spool_files": len(spool_files),
            "dropped_lines": dropped,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("w", encoding="utf-8") as fh:
            fh.write(_canonical(meta) + "\n")
            for line in lines:
                fh.write(line + "\n")
        for spool in spool_files:
            spool.unlink()
        try:
            self.spool_dir.rmdir()
        except OSError:
            pass  # a straggler worker recreated a file; leave the dir


# ----------------------------------------------------------------------
# module-level state + API (what instrumented code calls)
# ----------------------------------------------------------------------
#: the active emitter of this process: a parent TelemetrySession, a
#: worker-side _Emitter, or None (telemetry off — the common case)
_EMITTER: Optional[_Emitter] = None


def active_session() -> Optional[TelemetrySession]:
    """The live parent-process session, or ``None``."""
    if isinstance(_EMITTER, TelemetrySession):
        return _EMITTER
    return None


def enabled(level: str = "basic") -> bool:
    """Whether events at ``level`` are currently being recorded."""
    return _EMITTER is not None and _EMITTER.wants(level)


def count(name: str, n: int = 1) -> None:
    """Accumulate a counter delta (flushed as a ``counter`` event)."""
    if _EMITTER is None:
        return
    _EMITTER.bump(name, n)


def emit(name: str, *, key: object = None, level: str = "basic", **fields: object) -> None:
    """Record one point ``event`` (no duration)."""
    if _EMITTER is None or not _EMITTER.wants(level):
        return
    payload: Dict[str, Any] = {"t_wall": time.time()}
    payload.update(fields)
    _EMITTER.record("event", name, key, payload)


class _NullSpan:
    """The disabled span: a reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("name", "key", "fields", "_t0_wall", "_t0_perf")

    def __init__(self, name: str, key: object, fields: Dict[str, object]):
        self.name = name
        self.key = key
        self.fields = fields

    def __enter__(self) -> "_Span":
        self._t0_wall = time.time()
        self._t0_perf = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        emitter = _EMITTER
        if emitter is None:
            return
        payload: Dict[str, Any] = {
            "t_wall": self._t0_wall,
            "perf_s": time.perf_counter() - self._t0_perf,
        }
        payload.update(self.fields)
        if exc_type is not None:
            payload["error"] = exc_type.__name__
        emitter.record("span", self.name, self.key, payload)


def span(
    name: str, *, key: object = None, level: str = "basic", **fields: object
) -> Union[_Span, _NullSpan]:
    """A timed region; emits one ``span`` event at exit.

    Returns a no-op singleton when telemetry is off or below ``level``,
    so hot paths pay one call and one comparison."""
    if _EMITTER is None or not _EMITTER.wants(level):
        return _NULL_SPAN
    return _Span(name, key, dict(fields))


# ----------------------------------------------------------------------
# worker-process plumbing (engine/parallel hooks)
# ----------------------------------------------------------------------
def _activate_worker(config: TelemetryConfig) -> None:
    """Pool-initializer: route this worker's events to its spool file.

    Replaces any emitter inherited through ``fork`` — a worker must
    never write through the parent session's file handle."""
    global _EMITTER
    spool = Path(config.spool_dir) / f"w{os.getpid()}.jsonl"
    _EMITTER = _Emitter(spool, config.level)


def pool_initializer() -> Tuple[Optional[Callable[[TelemetryConfig], None]], Tuple[Any, ...]]:
    """``(initializer, initargs)`` for pools spawned under this session.

    ``(None, ())`` when telemetry is off — both ``multiprocessing.Pool``
    and ``ProcessPoolExecutor`` accept that as "no initializer"."""
    session = active_session()
    if session is None:
        return None, ()
    return _activate_worker, (session.config,)


def shard_call(fn: Callable[[S], R], key: object, unit: S) -> R:
    """Run one shard under a ``shard`` span, flushing worker counters.

    The engine routes every shard execution — pool or inline — through
    this wrapper; it is a plain module-level function, so pickling it
    into workers costs a qualified name, like the worker itself.
    """
    emitter = _EMITTER
    if emitter is None:
        return fn(unit)
    with span("shard", key=key, level="detailed"):
        result = fn(unit)
    emitter.flush_counters(key=key)
    return result


class _SessionGuard:
    """Context manager binding a session to the module state."""

    def __init__(self, session: Optional[TelemetrySession]):
        self.session = session

    def __enter__(self) -> Optional[TelemetrySession]:
        global _EMITTER
        if self.session is not None:
            if _EMITTER is not None:
                raise RuntimeError("a telemetry session is already active")
            _EMITTER = self.session.start()
        return self.session

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        global _EMITTER
        if self.session is None:
            return
        try:
            self.session.close(status="ok" if exc_type is None else "error")
        finally:
            _EMITTER = None


def telemetry_session(
    path: Union[str, Path, None],
    *,
    level: str = DEFAULT_LEVEL,
    command: str = "",
    context: Optional[Dict[str, Any]] = None,
) -> _SessionGuard:
    """Open a telemetry session for the duration of a ``with`` block.

    ``path=None`` yields a no-op guard, so drivers wrap their work
    unconditionally::

        with telemetry_session(args.telemetry, level=args.telemetry_level,
                               command="census"):
            rows = below_bound_census(...)

    On exit the stream at ``path`` is finalized (meta line + merged,
    deterministically sorted events) whether the block succeeded or
    raised — a crash's partial telemetry is exactly when you want it.
    """
    if path is None:
        return _SessionGuard(None)
    return _SessionGuard(
        TelemetrySession(
            path, level=validate_level(level), command=command, context=context
        )
    )


def _read_stream(path: Union[str, Path]) -> Iterator[Dict[str, Any]]:
    """Yield every parseable record of a finalized stream (report side)."""
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(payload, dict):
                yield payload
