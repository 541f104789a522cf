"""Framework-free request handling for the HTTP service.

:class:`ServiceState` owns the read-side query index and the job
manager, and exposes every endpoint as a plain method returning
``(status_code, payload)``.  The HTTP server in
:mod:`repro.service.app` is a thin routing shell over these methods,
so the whole service logic is usable and testable in-process.

Query-string values arrive as strings; this layer owns their parsing
and turns every client mistake into a ``400`` with a message (unknown
filters, non-integer values, out-of-range pagination), mirroring how
the CLI surfaces argparse errors.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from .. import obs
from ..io.query import QueryError, WitnessQueryIndex
from .jobs import JobManager, JobValidationError

__all__ = ["ServiceState"]

PathLike = Union[str, Path]

#: response payloads are (status, json-safe dict)
Response = Tuple[int, Dict[str, Any]]

_WITNESS_FILTERS = frozenset(
    {"rule", "kind", "m", "n", "colors", "method", "verified",
     "limit", "offset"}
)
_CELL_FILTERS = frozenset({"kind", "n", "limit", "offset"})


def _error(status: int, message: str) -> Response:
    return status, {"error": message}


def _parse_int(name: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise QueryError(
            f"query parameter {name!r} must be an integer, got {value!r}"
        ) from None


def _parse_bool(name: str, value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise QueryError(
        f"query parameter {name!r} must be a boolean, got {value!r}"
    )


def _check_filters(params: Mapping[str, str], allowed: frozenset) -> None:
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise QueryError(
            f"unknown query parameter(s): {', '.join(unknown)}; "
            f"accepted: {', '.join(sorted(allowed))}"
        )


class ServiceState:
    """Everything the service knows, behind framework-free handlers."""

    def __init__(
        self, db_path: PathLike, jobs_dir: Optional[PathLike] = None
    ) -> None:
        self.db_path = Path(db_path)
        self.index = WitnessQueryIndex(self.db_path)
        self.jobs = JobManager(self.db_path, jobs_dir)

    def close(self) -> None:
        self.jobs.close()

    # -- read side -----------------------------------------------------

    def health(self) -> Response:
        """Liveness plus a corpus summary (also warms the index)."""
        return 200, {
            "status": "ok",
            "db": str(self.db_path),
            **self.index.counts(),
        }

    def list_witnesses(self, params: Mapping[str, str]) -> Response:
        obs.count("service.witnesses")
        try:
            _check_filters(params, _WITNESS_FILTERS)
            page = self.index.witnesses(
                rule=params.get("rule"),
                kind=params.get("kind"),
                m=(
                    _parse_int("m", params["m"])
                    if "m" in params else None
                ),
                n=(
                    _parse_int("n", params["n"])
                    if "n" in params else None
                ),
                colors=(
                    _parse_int("colors", params["colors"])
                    if "colors" in params else None
                ),
                method=params.get("method"),
                verified=(
                    _parse_bool("verified", params["verified"])
                    if "verified" in params else None
                ),
                limit=(
                    _parse_int("limit", params["limit"])
                    if "limit" in params else None
                ),
                offset=(
                    _parse_int("offset", params["offset"])
                    if "offset" in params else None
                ),
            )
        except QueryError as exc:
            return _error(400, str(exc))
        return 200, page.as_dict()

    def list_census_cells(self, params: Mapping[str, str]) -> Response:
        obs.count("service.census-cells")
        try:
            _check_filters(params, _CELL_FILTERS)
            page = self.index.census_cells(
                kind=params.get("kind"),
                n=(
                    _parse_int("n", params["n"])
                    if "n" in params else None
                ),
                limit=(
                    _parse_int("limit", params["limit"])
                    if "limit" in params else None
                ),
                offset=(
                    _parse_int("offset", params["offset"])
                    if "offset" in params else None
                ),
            )
        except QueryError as exc:
            return _error(400, str(exc))
        return 200, page.as_dict()

    def get_witness(self, witness_id: str) -> Response:
        obs.count("service.witness-get")
        payload = self.index.witness(witness_id)
        if payload is None:
            return _error(404, f"no witness with id {witness_id!r}")
        return 200, payload

    # -- jobs ----------------------------------------------------------

    def submit_job(self, kind: str, body: Any) -> Response:
        obs.count("service.job-submit")
        if body is None:
            body = {}
        if not isinstance(body, dict):
            return _error(400, "request body must be a JSON object")
        try:
            if kind == "search":
                job = self.jobs.submit_search(body)
            elif kind == "census":
                job = self.jobs.submit_census(body)
            else:  # pragma: no cover - routes only offer the two kinds
                return _error(404, f"unknown job kind {kind!r}")
        except JobValidationError as exc:
            return _error(400, str(exc))
        return 202, job.as_dict()

    def get_job(self, job_id: str) -> Response:
        job = self.jobs.get(job_id)
        if job is None:
            return _error(404, f"no job with id {job_id!r}")
        return 200, job.as_dict()

    def cancel_job(self, job_id: str) -> Response:
        obs.count("service.job-cancel")
        job = self.jobs.cancel(job_id)
        if job is None:
            return _error(404, f"no job with id {job_id!r}")
        return 200, job.as_dict()
