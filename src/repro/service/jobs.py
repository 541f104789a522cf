"""Background jobs for the HTTP service — framework-free.

A :class:`JobManager` runs the existing drivers
(:func:`repro.core.search.random_dynamo_search` /
:func:`repro.core.search.exhaustive_dynamo_search` /
:func:`repro.experiments.census.below_bound_census`) on **one**
serialized worker thread.  Serialization is the write-safety story: the
witness database is append-only with a single-writer assumption, so
jobs queue rather than race, and each job opens its *own*
:class:`~repro.io.witnessdb.WitnessDB` instance on the shared path
(the read side uses a separate self-updating
:class:`~repro.io.WitnessQueryIndex`).

Bitwise identity with the CLI is a hard contract: job parameters
default to exactly the ``repro-dynamo`` defaults and feed the drivers
through the same :class:`~repro.engine.ExecutionSettings` path, so a
record appended by a service job is byte-for-byte the record the
equivalent CLI invocation appends (pinned in ``tests/test_service.py``
and CI's ``service-smoke`` job).

Progress comes from the run ledger: every job writes a private ledger
file under ``jobs_dir`` and :meth:`Job.progress` counts its committed
shard records — the same records that make crashed runs resumable —
so "how far along" is read from durable state, not a guess.
Cancellation is cooperative: ``DELETE /jobs/{id}`` sets the job's
:class:`threading.Event`, which reaches the drivers as
``ExecutionSettings.cancel`` and stops them at the next shard / batch
boundary (committed work stays committed).
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from ..engine.context import ExecutionSettings
from ..engine.parallel import RunCancelled, validate_processes
from ..io.ledger import RunLedger
from ..io.witnessdb import WitnessDB
from ..rules import RULE_NAMES, make_rule
from ..topology.tori import make_torus

__all__ = ["Job", "JobManager", "JobValidationError"]

PathLike = Union[str, Path]

#: torus kinds the job endpoints accept (the CLI's choices)
_TORUS_KINDS = ("mesh", "cordalis", "serpentinus")

#: job states; terminal states are the last three
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"


class JobValidationError(ValueError):
    """A job request body failed validation (a client error)."""


def _require(params: Mapping[str, Any], name: str) -> Any:
    if name not in params:
        raise JobValidationError(f"missing required parameter {name!r}")
    return params[name]


def _int_of(params: Mapping[str, Any], name: str, default: Any) -> Any:
    value = params.get(name, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise JobValidationError(f"{name!r} must be an integer, got {value!r}")
    return int(value)


def _bool_of(params: Mapping[str, Any], name: str, default: bool) -> bool:
    value = params.get(name, default)
    if not isinstance(value, bool):
        raise JobValidationError(f"{name!r} must be a boolean, got {value!r}")
    return value


def _reject_unknown(params: Mapping[str, Any], known: frozenset) -> None:
    unknown = sorted(set(params) - known)
    if unknown:
        raise JobValidationError(
            f"unknown parameter(s): {', '.join(unknown)}; "
            f"accepted: {', '.join(sorted(known))}"
        )


_SEARCH_PARAMS = frozenset(
    {
        "kind", "m", "n", "seed_size", "colors", "target_color", "rule",
        "exhaustive", "trials", "seed", "monotone_only", "batch_size",
        "shard_size", "processes", "max_configs",
    }
)

_CENSUS_PARAMS = frozenset(
    {
        "kinds", "sizes", "trials", "batch_size", "shard_size", "seed",
        "processes",
    }
)


def _validate_search(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Normalize a search request to the CLI's exact defaults."""
    _reject_unknown(params, _SEARCH_PARAMS)
    kind = _require(params, "kind")
    if kind not in _TORUS_KINDS:
        raise JobValidationError(
            f"kind must be one of {', '.join(_TORUS_KINDS)}, got {kind!r}"
        )
    rule = params.get("rule", "smp")
    if rule not in RULE_NAMES:
        raise JobValidationError(
            f"rule must be one of {', '.join(sorted(RULE_NAMES))}, got {rule!r}"
        )
    spec = {
        "kind": kind,
        "m": _int_of(params, "m", _require(params, "m")),
        "n": _int_of(params, "n", _require(params, "n")),
        "seed_size": _int_of(params, "seed_size", _require(params, "seed_size")),
        "colors": _int_of(params, "colors", 4),
        "target_color": _int_of(params, "target_color", 0),
        "rule": rule,
        "exhaustive": _bool_of(params, "exhaustive", False),
        "trials": _int_of(params, "trials", 20_000),
        "seed": _int_of(params, "seed", 0xBEEF),
        "monotone_only": _bool_of(params, "monotone_only", False),
        "batch_size": _int_of(params, "batch_size", None),
        "shard_size": _int_of(params, "shard_size", None),
        "processes": _int_of(params, "processes", 0),
        "max_configs": _int_of(params, "max_configs", 20_000_000),
    }
    try:
        validate_processes(spec["processes"])
        make_torus(kind, spec["m"], spec["n"])
        make_rule(rule, num_colors=spec["colors"])
    except (TypeError, ValueError) as exc:
        raise JobValidationError(str(exc)) from None
    return spec


def _validate_census(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Normalize a census request to the CLI's exact defaults."""
    _reject_unknown(params, _CENSUS_PARAMS)
    kinds = params.get("kinds", list(_TORUS_KINDS))
    if not isinstance(kinds, list) or not kinds:
        raise JobValidationError("'kinds' must be a non-empty list")
    for kind in kinds:
        if kind not in _TORUS_KINDS:
            raise JobValidationError(
                f"kinds must be among {', '.join(_TORUS_KINDS)}, got {kind!r}"
            )
    sizes = params.get("sizes", [3, 4, 5, 6])
    if not isinstance(sizes, list) or not sizes or not all(
        isinstance(s, int) and not isinstance(s, bool) for s in sizes
    ):
        raise JobValidationError("'sizes' must be a non-empty list of integers")
    spec = {
        "kinds": [str(kind) for kind in kinds],
        "sizes": [int(s) for s in sizes],
        "trials": _int_of(params, "trials", 20_000),
        "batch_size": _int_of(params, "batch_size", None),
        "shard_size": _int_of(params, "shard_size", None),
        "seed": _int_of(params, "seed", 0xBEEF),
        "processes": _int_of(params, "processes", 0),
    }
    try:
        validate_processes(spec["processes"])
    except (TypeError, ValueError) as exc:
        raise JobValidationError(str(exc)) from None
    return spec


@dataclass
class Job:
    """One queued/running/finished driver invocation."""

    id: str
    kind: str
    params: Dict[str, Any]
    ledger_path: Path
    status: str = QUEUED
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    cancel_event: threading.Event = field(default_factory=threading.Event)

    def progress(self) -> Dict[str, Any]:
        """Committed-shard progress read from the job's run ledger."""
        if not self.ledger_path.exists():
            return {"shards_committed": 0, "runs": 0, "runs_finished": 0}
        ledger = RunLedger(self.ledger_path)
        runs = ledger.runs
        return {
            "shards_committed": sum(ledger.shard_count(r) for r in runs),
            "runs": len(runs),
            "runs_finished": sum(1 for r in runs if ledger.finished(r)),
        }

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "params": self.params,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "progress": self.progress(),
        }
        if self.error is not None:
            payload["error"] = self.error
        if self.result is not None:
            payload["result"] = self.result
        return payload


class JobManager:
    """Serialized background execution of driver jobs.

    Parameters
    ----------
    db_path:
        The witness database every job appends into.
    jobs_dir:
        Directory for per-job run ledgers (default: ``<db>.jobs/``
        next to the database file).
    """

    def __init__(
        self,
        db_path: PathLike,
        jobs_dir: Optional[PathLike] = None,
    ) -> None:
        self.db_path = Path(db_path)
        self.jobs_dir = (
            Path(jobs_dir)
            if jobs_dir is not None
            else self.db_path.parent / (self.db_path.name + ".jobs")
        )
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._lock = threading.Lock()
        self._next_id = 1
        self._worker: Optional[threading.Thread] = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    def _ensure_worker(self) -> None:
        if self._worker is None or not self._worker.is_alive():
            self._worker = threading.Thread(
                target=self._drain, name="repro-service-jobs", daemon=True
            )
            self._worker.start()

    def close(self) -> None:
        """Stop accepting jobs and let the worker exit after the queue."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(None)
        if self._worker is not None and self._worker.is_alive():
            self._worker.join(timeout=5.0)

    # -- submission ----------------------------------------------------

    def submit_search(self, params: Mapping[str, Any]) -> Job:
        """Queue one dynamo search (the CLI ``search`` command)."""
        return self._submit("search", _validate_search(params))

    def submit_census(self, params: Mapping[str, Any]) -> Job:
        """Queue one below-bound census (the CLI ``census`` command)."""
        return self._submit("census", _validate_census(params))

    def _submit(self, kind: str, spec: Dict[str, Any]) -> Job:
        with self._lock:
            if self._closed:
                raise RuntimeError("job manager is shut down")
            job_id = f"job-{self._next_id}"
            self._next_id += 1
            job = Job(
                id=job_id,
                kind=kind,
                params=spec,
                ledger_path=self.jobs_dir / f"{job_id}.ledger",
                submitted_at=time.time(),
            )
            self._jobs[job_id] = job
            self._order.append(job_id)
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self._queue.put(job_id)
        self._ensure_worker()
        return job

    # -- inspection ----------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return [self._jobs[i] for i in self._order]

    def cancel(self, job_id: str) -> Optional[Job]:
        """Request cooperative cancellation; returns the job or None."""
        job = self.get(job_id)
        if job is None:
            return None
        with self._lock:
            if job.status == QUEUED:
                job.status = CANCELLED
                job.finished_at = time.time()
        job.cancel_event.set()
        return job

    # -- execution -----------------------------------------------------

    def _drain(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            job = self.get(job_id)
            if job is None or job.status != QUEUED:
                continue
            self._run(job)

    def _run(self, job: Job) -> None:
        with self._lock:
            job.status = RUNNING
            job.started_at = time.time()
        try:
            if job.kind == "search":
                result = self._run_search(job)
            else:
                result = self._run_census(job)
            with self._lock:
                job.result = result
                job.status = DONE
        except RunCancelled:
            with self._lock:
                job.status = CANCELLED
        except Exception as exc:
            with self._lock:
                job.error = "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip()
                job.status = FAILED
        finally:
            with self._lock:
                job.finished_at = time.time()

    def _settings(self, job: Job, **overrides: Any) -> ExecutionSettings:
        return ExecutionSettings(
            ledger=job.ledger_path,
            cancel=job.cancel_event.is_set,
            **overrides,
        )

    def _run_search(self, job: Job) -> Dict[str, Any]:
        from ..core.search import (
            exhaustive_dynamo_search,
            random_dynamo_search,
        )

        p = job.params
        topo = make_torus(p["kind"], p["m"], p["n"])
        rule = make_rule(p["rule"], num_colors=p["colors"])
        db = WitnessDB(self.db_path)
        before = len(db)
        if p["exhaustive"]:
            out = exhaustive_dynamo_search(
                topo,
                p["seed_size"],
                p["colors"],
                k=p["target_color"],
                rule=rule,
                monotone_only=p["monotone_only"],
                max_configs=p["max_configs"],
                db=db,
                settings=self._settings(
                    job,
                    batch_size=p["batch_size"],
                ),
            )
        else:
            out = random_dynamo_search(
                topo,
                p["seed_size"],
                p["colors"],
                p["trials"],
                p["seed"],
                k=p["target_color"],
                rule=rule,
                monotone_only=p["monotone_only"],
                db=db,
                settings=self._settings(
                    job,
                    processes=p["processes"],
                    batch_size=p["batch_size"],
                    shard_size=p["shard_size"],
                ),
            )
        return {
            "examined": int(out.examined),
            "witnesses": len(out.witnesses),
            "monotone": sum(1 for _, mono in out.witnesses if mono),
            "found_dynamo": bool(out.found_dynamo),
            "cached": bool(out.cached),
            "records_appended": len(db) - before,
        }

    def _run_census(self, job: Job) -> Dict[str, Any]:
        from ..experiments.census import below_bound_census

        p = job.params
        db = WitnessDB(self.db_path)
        rows = below_bound_census(
            kinds=p["kinds"],
            sizes=p["sizes"],
            random_trials=p["trials"],
            seed=p["seed"],
            db=db,
            settings=self._settings(
                job,
                processes=p["processes"],
                batch_size=p["batch_size"],
                shard_size=p["shard_size"],
            ),
        )
        return {
            "rows": [
                {
                    "kind": r.kind,
                    "n": r.n,
                    "paper_bound": r.paper_bound,
                    "certified_size": r.certified_size,
                    "method": r.method,
                    "ruled_out_below": r.ruled_out_below,
                    "below_bound": r.below_bound,
                }
                for r in rows
            ],
            "run_stats": rows.run_stats.as_dict(),
        }
