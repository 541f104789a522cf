"""HTTP service tests: the in-process core, then the server over a socket.

The service splits into an in-process layer (``repro.io.query``,
``repro.service.state``, ``repro.service.jobs``) tested directly, and
the standard-library HTTP server (``repro.service.app``), which these
tests start on an ephemeral loopback port and drive with
``urllib.request``.

The load-bearing contract pinned here: records appended by a service
job are **byte-identical** to the records the equivalent ``repro-dynamo``
CLI invocation appends.
"""

import json
import shutil
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.io import WitnessDB, WitnessQueryIndex, WitnessRecord, witness_to_dict
from repro.io.query import MAX_PAGE_LIMIT, QueryError
from repro.service.app import make_server, run_server
from repro.service.jobs import JobValidationError
from repro.service.state import ServiceState

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ROOT / "results" / "witnesses.jsonl"

#: small, fast job used for the bitwise CLI-vs-service comparison
#: (seed size 3 on the 3x3 mesh finds witnesses, so records land)
SEARCH_JOB = {
    "kind": "mesh", "m": 3, "n": 3, "seed_size": 3, "colors": 3,
    "trials": 400,
}
SEARCH_CLI = [
    "search", "mesh", "3", "3", "--seed-size", "3", "--colors", "3",
    "--trials", "400",
]


def wait_for(state, job_id, timeout=30.0):
    """Poll a job to a terminal state; fail the test on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, payload = state.get_job(job_id)
        if payload["status"] in ("done", "failed", "cancelled"):
            return payload
        time.sleep(0.05)
    pytest.fail(f"job {job_id} did not finish within {timeout}s: {payload}")


# ---------------------------------------------------------------------------
# query layer
# ---------------------------------------------------------------------------


class TestQueryIndex:
    def test_filters_match_witnessdb(self):
        idx = WitnessQueryIndex(SHIPPED)
        db = WitnessDB(SHIPPED)
        page = idx.witnesses(kind="mesh", limit=MAX_PAGE_LIMIT)
        assert page.total == len(db.witnesses(kind="mesh"))
        assert all(item["kind"] == "mesh" for item in page.items)
        narrowed = idx.witnesses(kind="mesh", colors=4, limit=MAX_PAGE_LIMIT)
        assert narrowed.total == len(db.witnesses(kind="mesh", colors=4))

    def test_pagination_edges(self):
        idx = WitnessQueryIndex(SHIPPED)
        total = idx.witnesses(limit=1).total
        assert total > 2
        # windows tile the corpus without overlap
        first = idx.witnesses(limit=2, offset=0)
        second = idx.witnesses(limit=2, offset=2)
        ids = [i["id"] for i in first.items + second.items]
        assert len(set(ids)) == len(ids) == 4
        # an offset past the end is empty, not an error
        past = idx.witnesses(limit=5, offset=total + 10)
        assert past.items == [] and past.total == total
        # invalid windows are client errors
        with pytest.raises(QueryError):
            idx.witnesses(limit=0)
        with pytest.raises(QueryError):
            idx.witnesses(limit=MAX_PAGE_LIMIT + 1)
        with pytest.raises(QueryError):
            idx.witnesses(offset=-1)

    def test_payloads_are_on_disk_bytes(self):
        """Served items are exactly the persisted payload dicts."""
        idx = WitnessQueryIndex(SHIPPED)
        item = idx.witnesses(limit=1).items[0]
        on_disk = None
        with open(SHIPPED, encoding="utf-8") as fh:
            for line in fh:
                payload = json.loads(line)
                if payload.get("id") == item["id"]:
                    on_disk = payload  # last wins (superseding appends)
        assert on_disk == item

    def test_reload_on_file_change(self, tmp_path):
        path = tmp_path / "w.jsonl"
        idx = WitnessQueryIndex(path)
        assert idx.witnesses().total == 0  # missing file = empty corpus
        rc = cli_main(SEARCH_CLI + ["--db", str(path), "--seed", "3"])
        assert rc in (0, 1)
        assert idx.witnesses().total == len(WitnessDB(path))

    def test_census_cells(self):
        idx = WitnessQueryIndex(SHIPPED)
        page = idx.census_cells(limit=MAX_PAGE_LIMIT)
        assert page.total == len(WitnessDB(SHIPPED).cells)
        mesh = idx.census_cells(kind="mesh", limit=MAX_PAGE_LIMIT)
        assert 0 < mesh.total < page.total
        assert all(item["kind"] == "mesh" for item in mesh.items)

    def test_concurrent_reads_during_appends(self, tmp_path):
        """Readers never see a catch-up half done or a shrinking corpus."""
        path = tmp_path / "w.jsonl"
        shutil.copyfile(SHIPPED, path)
        state = ServiceState(path, jobs_dir=tmp_path / "jobs")
        writer = WitnessDB(path)
        start = len(writer)
        done = threading.Event()
        errors, totals = [], [[] for _ in range(3)]

        def read(seen):
            try:
                while not done.is_set():
                    status, page = state.list_witnesses({"limit": "500"})
                    assert status == 200
                    seen.append(page["total"])
            except Exception as exc:  # reported after the join
                errors.append(exc)

        readers = [
            threading.Thread(target=read, args=(seen,)) for seen in totals
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-iteration often
        for thread in readers:
            thread.start()
        try:
            for i in range(50):
                config = [0] + [(i // 3**j) % 4 for j in range(15)]
                assert writer.add(WitnessRecord(
                    rule="smp", kind="mesh", m=4, n=4, colors=4, k=0,
                    seed_size=config.count(0), monotone=True,
                    configuration=config, method="manual",
                    provenance={"source": "concurrency-test"},
                ))
                time.sleep(0.002)
        finally:
            done.set()
            for thread in readers:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert errors == []
        for seen in totals:
            assert seen and seen == sorted(seen)
        status, page = state.list_witnesses({"limit": "500"})
        fresh = [witness_to_dict(rec) for rec in WitnessDB(path)]
        assert page["total"] == len(fresh) == start + 50
        assert page["items"] == fresh[:500]
        state.close()


# ---------------------------------------------------------------------------
# in-process state handlers
# ---------------------------------------------------------------------------


@pytest.fixture
def shipped_state():
    state = ServiceState(SHIPPED)
    yield state
    state.close()


class TestServiceState:
    def test_health(self, shipped_state):
        status, payload = shipped_state.health()
        db = WitnessDB(SHIPPED)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["witnesses"] == len(db)
        assert payload["census_cells"] == len(db.cells)

    def test_witness_filters(self, shipped_state):
        status, page = shipped_state.list_witnesses(
            {"kind": "mesh", "n": "4", "limit": "500"}
        )
        assert status == 200
        expected = WitnessDB(SHIPPED).witnesses(kind="mesh", n=4)
        assert page["total"] == len(expected)

    def test_unknown_filter_is_400(self, shipped_state):
        status, payload = shipped_state.list_witnesses({"sizes": "3"})
        assert status == 400
        assert "sizes" in payload["error"]

    def test_non_integer_filter_is_400(self, shipped_state):
        status, payload = shipped_state.list_witnesses({"n": "four"})
        assert status == 400
        assert "'n'" in payload["error"]

    def test_witness_by_id_and_404(self, shipped_state):
        wid = shipped_state.list_witnesses({"limit": "1"})[1]["items"][0]["id"]
        status, payload = shipped_state.get_witness(wid)
        assert status == 200 and payload["id"] == wid
        status, payload = shipped_state.get_witness("no-such-id")
        assert status == 404

    def test_job_endpoints_404(self, shipped_state):
        assert shipped_state.get_job("job-99")[0] == 404
        assert shipped_state.cancel_job("job-99")[0] == 404

    def test_bad_job_bodies_are_400(self, shipped_state):
        status, payload = shipped_state.submit_job("search", {"kind": "mesh"})
        assert status == 400 and "missing required parameter" in payload["error"]
        status, payload = shipped_state.submit_job("search", [1, 2])
        assert status == 400
        status, payload = shipped_state.submit_job(
            "search", dict(SEARCH_JOB, bogus=1)
        )
        assert status == 400 and "bogus" in payload["error"]
        status, payload = shipped_state.submit_job(
            "census", {"sizes": ["three"]}
        )
        assert status == 400


# ---------------------------------------------------------------------------
# jobs: lifecycle, bitwise identity, cancellation
# ---------------------------------------------------------------------------


class TestJobs:
    def test_search_job_is_bitwise_identical_to_cli(self, tmp_path):
        cli_db = tmp_path / "cli.jsonl"
        rc = cli_main(SEARCH_CLI + ["--db", str(cli_db)])
        assert rc in (0, 1)

        state = ServiceState(tmp_path / "web.jsonl",
                             jobs_dir=tmp_path / "jobs")
        try:
            status, job = state.submit_job("search", dict(SEARCH_JOB))
            assert status == 202 and job["status"] in ("queued", "running")
            payload = wait_for(state, job["id"])
            assert payload["status"] == "done", payload.get("error")
            assert payload["result"]["examined"] == SEARCH_JOB["trials"]
            # progress came from the job's run ledger
            assert payload["progress"]["shards_committed"] >= 1
            assert payload["progress"]["runs_finished"] == 1
        finally:
            state.close()
        assert cli_db.read_bytes() == (tmp_path / "web.jsonl").read_bytes()

    def test_census_job_matches_cli(self, tmp_path):
        cli_db = tmp_path / "cli.jsonl"
        rc = cli_main(
            ["census", "--kinds", "mesh", "--sizes", "3",
             "--trials", "60", "--db", str(cli_db)]
        )
        assert rc == 0

        state = ServiceState(tmp_path / "web.jsonl",
                             jobs_dir=tmp_path / "jobs")
        try:
            status, job = state.submit_job(
                "census", {"kinds": ["mesh"], "sizes": [3], "trials": 60}
            )
            assert status == 202
            payload = wait_for(state, job["id"])
            assert payload["status"] == "done", payload.get("error")
            assert payload["result"]["run_stats"]["cells"] == 1
        finally:
            state.close()
        assert cli_db.read_bytes() == (tmp_path / "web.jsonl").read_bytes()

    def test_validation_rejects_bad_specs(self, tmp_path):
        state = ServiceState(tmp_path / "w.jsonl")
        try:
            for bad in (
                {"kind": "klein-bottle", "m": 3, "n": 3, "seed_size": 1},
                {"kind": "mesh", "m": 3, "n": 3, "seed_size": 1,
                 "rule": "no-such-rule"},
                {"kind": "mesh", "m": 3, "n": 3, "seed_size": 1,
                 "trials": "many"},
                {"kind": "mesh", "m": 3, "n": 3, "seed_size": 1,
                 "processes": -2},
            ):
                with pytest.raises(JobValidationError):
                    state.jobs.submit_search(bad)
        finally:
            state.close()

    def test_cancel_running_job(self, tmp_path):
        state = ServiceState(tmp_path / "w.jsonl",
                             jobs_dir=tmp_path / "jobs")
        try:
            # big enough to still be running when the cancel lands
            status, job = state.submit_job(
                "search",
                {"kind": "mesh", "m": 4, "n": 4, "seed_size": 3,
                 "colors": 4, "trials": 2_000_000, "batch_size": 256,
                 "shard_size": 256},
            )
            assert status == 202
            state.cancel_job(job["id"])
            payload = wait_for(state, job["id"])
            assert payload["status"] == "cancelled"
        finally:
            state.close()

    def test_cancel_queued_job(self, tmp_path):
        state = ServiceState(tmp_path / "w.jsonl")
        try:
            first = state.submit_job("search", dict(SEARCH_JOB))[1]
            second = state.submit_job("search", dict(SEARCH_JOB, seed=7))[1]
            state.cancel_job(second["id"])
            done = wait_for(state, first["id"])
            assert done["status"] in ("done", "cancelled")
            cancelled = wait_for(state, second["id"])
            assert cancelled["status"] == "cancelled"
        finally:
            state.close()


# ---------------------------------------------------------------------------
# the HTTP server, over a real loopback socket
# ---------------------------------------------------------------------------


class HttpClient:
    """JSON requests against a running server; 4xx/5xx come back as
    ``(status, payload)`` like 2xx, so every error body must be JSON."""

    #: bypass any proxy configured in the environment
    _opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def __init__(self, server):
        host, port = server.server_address[:2]
        self.base = f"http://{host}:{port}"

    def request(self, method, path, body=None):
        req = urllib.request.Request(self.base + path, data=body, method=method)
        try:
            with self._opener.open(req, timeout=30) as resp:
                status, raw = resp.status, resp.read()
                content_type = resp.headers["Content-Type"]
        except urllib.error.HTTPError as err:
            with err:
                status, raw = err.code, err.read()
                content_type = err.headers["Content-Type"]
        assert content_type == "application/json", (path, content_type)
        return status, json.loads(raw)

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, json_body=None, body=None):
        if json_body is not None:
            body = json.dumps(json_body).encode()
        return self.request("POST", path, body)

    def delete(self, path):
        return self.request("DELETE", path)


@pytest.fixture
def client(tmp_path):
    db = tmp_path / "w.jsonl"
    shutil.copyfile(SHIPPED, db)
    server = make_server(db, port=0, jobs_dir=tmp_path / "jobs")
    thread = threading.Thread(target=run_server, args=(server,), daemon=True)
    thread.start()
    try:
        yield HttpClient(server)
    finally:
        server.shutdown()
        thread.join(timeout=10)
    assert not thread.is_alive()


class TestHttpServer:
    def test_health(self, client):
        status, payload = client.get("/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["witnesses"] == len(WitnessDB(SHIPPED))

    def test_filtered_query_matches_corpus(self, client):
        status, page = client.get("/witnesses?kind=mesh&colors=4&limit=500")
        assert status == 200
        expected = WitnessDB(SHIPPED).witnesses(kind="mesh", colors=4)
        assert page["total"] == len(expected)
        assert {i["id"] for i in page["items"]} == {r.id for r in expected}
        # a repeated key keeps its last value
        status, last = client.get(
            "/witnesses?kind=cordalis&kind=mesh&colors=4&limit=500"
        )
        assert status == 200 and last == page

    def test_pagination_and_errors(self, client):
        status, first = client.get("/witnesses?limit=2")
        assert status == 200 and len(first["items"]) == 2
        status, second = client.get("/witnesses?limit=2&offset=2")
        ids = [i["id"] for i in first["items"] + second["items"]]
        assert len(set(ids)) == 4
        assert client.get("/witnesses?limit=0")[0] == 400
        assert client.get("/witnesses?bogus=1")[0] == 400
        assert client.get("/witnesses/no-such-id")[0] == 404
        assert client.get("/census-cells?kind=mesh")[0] == 200
        # path segments are unquoted before the lookup
        wid = ids[0]
        status, payload = client.get(f"/witnesses/%{ord(wid[0]):02X}{wid[1:]}")
        assert status == 200 and payload["id"] == wid

    def test_job_lifecycle_appends_cli_identical_records(
        self, client, tmp_path
    ):
        cli_db = tmp_path / "cli-ref.jsonl"
        shutil.copyfile(SHIPPED, cli_db)
        rc = cli_main(SEARCH_CLI + ["--db", str(cli_db)])
        assert rc in (0, 1)

        status, job = client.post("/jobs/search", json_body=SEARCH_JOB)
        assert status == 202
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            status, payload = client.get(f"/jobs/{job['id']}")
            if payload["status"] in ("done", "failed", "cancelled"):
                break
            time.sleep(0.05)
        assert payload["status"] == "done", payload.get("error")
        assert (
            cli_db.read_bytes()
            == (tmp_path / "w.jsonl").read_bytes()
        )

    def test_job_validation_and_404(self, client):
        assert client.post("/jobs/search", json_body={})[0] == 400
        status, payload = client.post("/jobs/search", json_body=[1, 2])
        assert status == 400 and "JSON object" in payload["error"]
        assert client.get("/jobs/job-99")[0] == 404
        status, payload = client.delete("/jobs/job-99")
        assert status == 404

    def test_malformed_requests_get_json_4xx(self, client, capsys):
        status, payload = client.post("/jobs/search", body=b"not json")
        assert status == 400
        assert payload["error"] == "request body is not valid JSON"
        status, payload = client.get("/no/such/route")
        assert status == 404 and "/no/such/route" in payload["error"]
        status, payload = client.delete("/witnesses")
        assert status == 405 and "DELETE" in payload["error"]
        assert client.request("PUT", "/jobs/search")[0] == 405
        # no stdlib access log for any of them
        assert capsys.readouterr().err == ""


class TestServeCli:
    def test_port_out_of_range_is_a_parse_error(self, capsys):
        for bad in ("70000", "http"):
            with pytest.raises(SystemExit) as exc:
                cli_main(["serve", "--db", str(SHIPPED), "--port", bad])
            assert exc.value.code == 2
            assert "0..65535" in capsys.readouterr().err

    def test_port_in_use_fails_cleanly(self, tmp_path, capsys):
        db = tmp_path / "w.jsonl"
        shutil.copyfile(SHIPPED, db)
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            port = held.getsockname()[1]
            rc = cli_main(["serve", "--db", str(db), "--port", str(port)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: cannot listen on 127.0.0.1:")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_serve_announces_the_bound_port(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.service.app as app

        served = []

        def fake_run_server(server):  # bind only; do not block
            served.append(server.server_address)
            server.server_close()
            server.state.close()

        monkeypatch.setattr(app, "run_server", fake_run_server)
        db = tmp_path / "w.jsonl"
        rc = cli_main(["serve", "--db", str(db), "--port", "0"])
        host, port = served[0][:2]
        assert rc == 0 and port != 0
        assert capsys.readouterr().err == (
            f"serving {db} on http://{host}:{port}\n"
        )
