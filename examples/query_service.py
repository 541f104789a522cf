#!/usr/bin/env python
"""The witness corpus over HTTP: every endpoint, on a loopback socket.

`repro-dynamo serve` puts the witness database behind an HTTP API and
runs search/census jobs in the background, appending records that are
bitwise-identical to what the CLI writes.  This example boots the same
server on a free loopback port and walks the endpoint surface with
`urllib.request` — the standard library on both ends.

Run:  python examples/query_service.py
"""

import json
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.experiments import below_bound_census
from repro.io import WitnessDB
from repro.service.app import make_server, run_server


def show(label, status, payload) -> None:
    print(f"--- {label} -> {status}")
    print(json.dumps(payload, indent=2, default=str)[:600])
    print()


def call(base, path, body=None):
    """One request; returns ``(status, payload)`` for errors too."""
    data = None if body is None else json.dumps(body).encode()
    try:
        with urllib.request.urlopen(base + path, data=data) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as err:
        with err:
            return err.code, json.load(err)


def wait_done(base, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, payload = call(base, f"/jobs/{job_id}")
        if payload["status"] in ("done", "failed", "cancelled"):
            return payload
        time.sleep(0.1)
    raise TimeoutError(f"job {job_id} did not finish")


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-service-"))
    db_path = workdir / "witnesses.jsonl"

    # Seed a small corpus the service will query: one census cell.
    below_bound_census(kinds=["mesh"], sizes=[3], random_trials=400,
                       db=WitnessDB(db_path))

    server = make_server(db_path, port=0)  # any free port
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    print(f"serving {db_path} on {base}\n")
    thread = threading.Thread(target=run_server, args=(server,))
    thread.start()
    try:
        walkthrough(base)
    finally:
        server.shutdown()
        thread.join()


def walkthrough(base) -> None:
    show("GET /health", *call(base, "/health"))

    status, page = call(base, "/witnesses?kind=mesh&limit=3")
    show("GET /witnesses?kind=mesh&limit=3", status, page)

    first = page["items"][0]["id"]
    show(f"GET /witnesses/{first}", *call(base, f"/witnesses/{first}"))

    show("GET /census-cells?kind=mesh", *call(base, "/census-cells?kind=mesh"))

    # Launch the same random search the CLI would run; the appended
    # records are bitwise-identical to `repro-dynamo search ... --db`.
    spec = {"kind": "mesh", "m": 3, "n": 3, "seed_size": 3,
            "colors": 3, "trials": 400}
    status, job = call(base, "/jobs/search", spec)
    show("POST /jobs/search", status, job)

    done = wait_done(base, job["id"])
    show(f"GET /jobs/{job['id']} (final)", 200, done)

    status, payload = call(base, "/health")
    print(f"corpus after the job: {payload['witnesses']} witnesses, "
          f"{payload['searches']} recorded searches")


if __name__ == "__main__":
    main()
