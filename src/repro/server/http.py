"""HTTP transport for the AQP server (stdlib ``http.server``).

One :class:`ReproHTTPServer` (a ``ThreadingHTTPServer``: one handler
thread per connection) adapts the wire routes onto
:meth:`repro.server.app.AQPServer.handle`:

========  =========  =======================================
method    path       protocol op
========  =========  =======================================
POST      /query     ``query`` (body = request object)
POST      /append    ``append`` (body = request object)
GET       /healthz   ``health``
GET       /stats     ``stats``
========  =========  =======================================

The handler does transport only — reading the body, decoding strict
JSON (``NaN``/``Infinity`` tokens are refused), serialising the response
with one ``json.dumps(..., allow_nan=False)`` — every decision
(admission, locking, error mapping) lives in the transport-independent
:class:`~repro.server.app.AQPServer` so tests can drive it without
sockets.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import InternalError, QueryError
from repro.middleware.session import AQPSession
from repro.obs.registry import get_registry
from repro.server.app import AQPServer, ServerConfig
from repro.server.protocol import error_response

#: Largest request body accepted, bytes (an append of a few hundred
#: thousand rows fits comfortably; anything larger is abuse).
MAX_BODY_BYTES = 64 * 1024 * 1024


class ReproHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server holding the shared :class:`AQPServer`."""

    #: Handler threads must not block interpreter exit.
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], app: AQPServer) -> None:
        super().__init__(address, _Handler)
        self.app = app


class _Handler(BaseHTTPRequestHandler):
    """Per-connection request handler: decode, dispatch, encode."""

    #: Keep connections alive between requests (clients pipeline).
    protocol_version = "HTTP/1.1"
    server: ReproHTTPServer

    # -- routing -------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — http.server API
        if self.path == "/healthz":
            self._respond(*self.server.app.handle({"op": "health"}))
        elif self.path == "/stats":
            self._respond(*self.server.app.handle({"op": "stats"}))
        else:
            self._respond(
                *error_response(
                    QueryError(f"no such route: GET {self.path}"),
                    code="invalid_request",
                )
            )

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        op = {"/query": "query", "/append": "append"}.get(self.path)
        if op is None:
            self._respond(
                *error_response(
                    QueryError(f"no such route: POST {self.path}"),
                    code="invalid_request",
                )
            )
            return
        try:
            request = self._read_json_body()
        except QueryError as error:
            self._respond(*error_response(error, code="invalid_request"))
            return
        if isinstance(request, dict):
            request["op"] = op
        self._respond(*self.server.app.handle(request))

    # -- transport helpers ---------------------------------------------
    def _read_json_body(self) -> object:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise QueryError("invalid Content-Length header") from None
        if length <= 0:
            raise QueryError("request needs a JSON body")
        if length > MAX_BODY_BYTES:
            raise QueryError(
                f"request body too large ({length} > {MAX_BODY_BYTES} bytes)"
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"), parse_constant=_refuse)
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise QueryError(f"request body is not JSON: {error}") from None

    def _respond(self, status: int, body: dict) -> None:
        try:
            text = json.dumps(body, sort_keys=True, allow_nan=False)
        except (TypeError, ValueError) as error:  # a bug: answer 500
            get_registry().incr("server.errors")
            status, body = error_response(
                InternalError(f"response is not strict JSON: {error}")
            )
            text = json.dumps(body, sort_keys=True)
        payload = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args: object) -> None:
        """Silence per-request stderr chatter; /stats carries the counts."""


def _refuse(token: str) -> object:
    """``parse_constant`` hook: ``NaN``/``Infinity`` are not JSON."""
    raise QueryError(f"request body is not strict JSON: {token}")


def make_server(
    session: AQPSession,
    host: str = "127.0.0.1",
    port: int = 0,
    config: ServerConfig | None = None,
) -> ReproHTTPServer:
    """Bind a :class:`ReproHTTPServer` (``port=0`` picks a free port).

    The caller owns the lifecycle::

        server = make_server(session)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        ...
        server.shutdown()      # stop accepting
        server.server_close()  # release the socket
        session.close()        # release session state (idempotent)
    """
    return ReproHTTPServer((host, port), AQPServer(session, config))


__all__ = ["MAX_BODY_BYTES", "ReproHTTPServer", "make_server"]
