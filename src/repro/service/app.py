"""The HTTP front-end, on the standard library alone.

:func:`make_server` binds a :class:`~http.server.ThreadingHTTPServer`
whose one handler routes the service's eight endpoints to a
:class:`~repro.service.state.ServiceState` method and writes the
``(status, payload)`` it returns as JSON.  Errors are JSON too: 404 for
an unknown path, 405 for a known path under the wrong method, 400 for a
POST body that is not valid JSON, and whatever the stdlib itself
answers (a malformed request line, an unsupported method) goes through
the same writer instead of an HTML error page.

One server owns one ``ServiceState``, and so one witnessdb writer
queue; :func:`run_server` serves until interrupted and then closes
both.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qsl, unquote, urlsplit

from .. import obs
from .state import Response, ServiceState

__all__ = ["ServiceServer", "make_server", "run_server"]

PathLike = Union[str, Path]

#: an endpoint: (state, query params, raw body, captured path segments)
Endpoint = Callable[[ServiceState, Dict[str, str], bytes, List[str]], Response]


def _health(state: ServiceState, query, body, args) -> Response:
    obs.count("service.health")
    return state.health()


def _submit(kind: str) -> Endpoint:
    def submit(state: ServiceState, query, body, args) -> Response:
        try:
            parsed = json.loads(body) if body else {}
        except ValueError:
            return 400, {"error": "request body is not valid JSON"}
        return state.submit_job(kind, parsed)

    return submit


#: path pattern -> {method: endpoint}; a ``None`` segment matches any
#: one path segment and is passed to the endpoint (literal routes come
#: first, so ``POST /jobs/search`` is a submit, ``GET /jobs/search`` a
#: lookup of a job with that id)
_ROUTES: Tuple[Tuple[Tuple[Optional[str], ...], Dict[str, Endpoint]], ...] = (
    (("health",), {"GET": _health}),
    (("witnesses",), {"GET": lambda s, q, b, a: s.list_witnesses(q)}),
    (("witnesses", None), {"GET": lambda s, q, b, a: s.get_witness(*a)}),
    (("census-cells",), {"GET": lambda s, q, b, a: s.list_census_cells(q)}),
    (("jobs", "search"), {"POST": _submit("search")}),
    (("jobs", "census"), {"POST": _submit("census")}),
    (("jobs", None), {
        "GET": lambda s, q, b, a: s.get_job(*a),
        "DELETE": lambda s, q, b, a: s.cancel_job(*a),
    }),
)


def _match(pattern: Tuple[Optional[str], ...], parts: List[str]):
    """The captured segments when ``parts`` fits ``pattern``, else None."""
    if len(pattern) != len(parts):
        return None
    captured = []
    for want, got in zip(pattern, parts):
        if want is None:
            captured.append(got)
        elif want != got:
            return None
    return captured


class _Handler(BaseHTTPRequestHandler):
    server: "ServiceServer"

    def _dispatch(self) -> None:
        url = urlsplit(self.path)
        parts = [unquote(p) for p in url.path.strip("/").split("/")]
        # repeated keys keep the last value
        query = dict(parse_qsl(url.query, keep_blank_values=True))
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            self._send(400, {"error": "invalid Content-Length header"})
            return
        body = self.rfile.read(length)
        path_known = False
        for pattern, methods in _ROUTES:
            captured = _match(pattern, parts)
            if captured is None:
                continue
            path_known = True
            endpoint = methods.get(self.command)
            if endpoint is not None:
                self._send(*endpoint(self.server.state, query, body, captured))
                return
        if path_known:
            self._send(405, {"error": f"method {self.command} not allowed "
                                      f"on {url.path}"})
        else:
            self._send(404, {"error": f"no route for {url.path}"})

    do_GET = do_POST = do_PUT = do_PATCH = do_DELETE = _dispatch

    def _send(self, status: int, payload: Dict[str, Any]) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def send_error(self, code, message=None, explain=None) -> None:
        # the stdlib's own rejections answer in JSON, like every route
        self._send(code, {"error": message or self.responses[code][0]})

    def log_message(self, format, *args) -> None:
        pass  # no per-request access log on stderr


class ServiceServer(ThreadingHTTPServer):
    """A threaded HTTP server (one daemon thread per request) that
    answers from one :class:`ServiceState`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], state: ServiceState):
        super().__init__(address, _Handler)
        self.state = state


def make_server(
    db_path: PathLike,
    *,
    host: str = "127.0.0.1",
    port: int = 8711,
    jobs_dir: Optional[PathLike] = None,
) -> ServiceServer:
    """Bind the service for one witness database (port 0 binds any
    free port; read it back from ``server.server_address``).

    Raises :class:`OSError` when the address cannot be bound.
    """
    return ServiceServer((host, port), ServiceState(db_path, jobs_dir))


def run_server(server: ServiceServer) -> None:
    """Serve until interrupted, then close the server and its state."""
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        server.state.close()
