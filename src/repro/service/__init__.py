"""HTTP serving layer for the witness corpus.

``repro.service`` puts the witness database behind a small read-mostly
HTTP API so a browser, notebook, or collaborator can query the corpus
and launch the existing drivers without shelling into the repo:

* ``GET /health`` — liveness plus corpus summary;
* ``GET /witnesses`` / ``GET /census-cells`` — filtered, paginated
  views served through :class:`repro.io.WitnessQueryIndex` (responses
  are the exact on-disk JSONL payloads);
* ``GET /witnesses/{id}`` — one record in full;
* ``POST /jobs/search`` / ``POST /jobs/census`` — launch
  :func:`repro.core.search.random_dynamo_search` /
  :func:`repro.experiments.census.below_bound_census` as background
  jobs whose appended records are **bitwise-identical** to what the
  ``repro-dynamo`` CLI would have written (same defaults, same
  definitions — the service is just another front-end);
* ``GET /jobs/{id}`` — job status with shard-level progress fed from
  the job's run ledger; ``DELETE /jobs/{id}`` cancels cooperatively.

:mod:`repro.service.state` answers every endpoint as a plain
``(status, payload)`` method and :mod:`repro.service.jobs` runs the
jobs; both are usable in-process.  :mod:`repro.service.app` serves
them over a standard-library ``ThreadingHTTPServer``
(:func:`~repro.service.app.make_server`,
:func:`~repro.service.app.run_server`).  It is imported on demand, so
in-process users do not load ``http.server``.
"""

from __future__ import annotations

from .jobs import Job, JobManager
from .state import ServiceState

__all__ = [
    "Job",
    "JobManager",
    "ServiceState",
]
