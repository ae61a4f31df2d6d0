"""Thin stdlib client for the AQP server (:mod:`repro.server`).

:class:`ReproClient` speaks the JSON protocol from ``docs/serving.md``
over a persistent ``http.client`` connection.  Protocol failures raise
:class:`~repro.errors.ServerError` carrying the machine-readable wire
``code`` (``overloaded``, ``deadline_exceeded``, ...) and HTTP status so
callers can branch on them (back off on ``overloaded``, surface
``parse_error`` to the user, and so on).

One client is one connection: share a client across threads and requests
serialise on its lock — give each worker thread its own client for
parallel load (the CLI and the serving benchmark both do).

A kept-alive connection the server has closed is noticed before the next
request is sent and replaced.  A request that fails after it went out is
retried once, through a fresh connection, only when repeating it is
harmless (``GET``s and ``/query``); an ``/append`` is never sent twice,
since the server may have applied the first copy.
"""

from __future__ import annotations

import http.client
import json
import select
import socket
import threading
from typing import Any

from repro.errors import ServerError
from repro.obs.jsonsafe import dumps


class ReproClient:
    """JSON-over-HTTP client for one AQP server."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._lock = threading.Lock()
        self._conn: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def _drop_connection(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        check: bool = True,
    ) -> dict:
        payload = _encode_body(body) if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        idempotent = path != "/append"
        with self._lock:
            if self._conn is not None and _peer_closed(self._conn.sock):
                self._drop_connection()
            for attempt in (0, 1):
                conn = self._connection()
                sent = False
                try:
                    conn.request(method, path, body=payload, headers=headers)
                    sent = True
                    response = conn.getresponse()
                    raw = response.read()
                    break
                except (OSError, http.client.HTTPException) as error:
                    self._drop_connection()
                    if attempt or (sent and not idempotent):
                        raise ServerError(
                            f"cannot reach server at "
                            f"{self.host}:{self.port}: {error}"
                        ) from error
        try:
            decoded = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServerError(
                f"server returned invalid JSON (HTTP {response.status})",
                status=response.status,
            ) from error
        if not isinstance(decoded, dict):
            raise ServerError(
                "server response is not a JSON object",
                status=response.status,
            )
        if check and (response.status != 200 or not decoded.get("ok", False)):
            error_obj = decoded.get("error") or {}
            raise ServerError(
                error_obj.get("message", f"HTTP {response.status}"),
                code=error_obj.get("code"),
                status=response.status,
            )
        return decoded

    # ------------------------------------------------------------------
    # Protocol ops
    # ------------------------------------------------------------------
    def query(
        self,
        sql: str,
        mode: str = "approx",
        explain: bool = False,
        timeout: float | None = None,
    ) -> dict[str, Any]:
        """Run one SQL aggregation query; returns the response object.

        The response carries ``answer`` (canonically-ordered groups),
        ``fingerprint`` (SHA-256 of the canonical answer), ``timings``,
        and ``coalesced`` (whether this request shared an identical
        in-flight execution).  ``timeout`` becomes the server-side
        per-request deadline; expiry raises ``ServerError`` with
        ``code="deadline_exceeded"``.
        """
        body: dict[str, Any] = {"sql": sql, "mode": mode}
        if explain:
            body["explain"] = True
        if timeout is not None:
            body["timeout"] = timeout
        return self._request("POST", "/query", body)

    def append_rows(
        self, table: str, rows: dict[str, list]
    ) -> dict[str, Any]:
        """Append a column-oriented batch to ``table`` on the server."""
        return self._request(
            "POST", "/append", {"table": table, "rows": rows}
        )

    def healthz(self) -> dict[str, Any]:
        """Server liveness: status, protocol version, in-flight gauge.

        A draining server answers 503 with ``status: "closed"`` — a
        probe wants that payload, not an exception, so this is the one
        op that returns non-200 bodies instead of raising.
        """
        return self._request("GET", "/healthz", check=False)

    def stats(self) -> dict[str, Any]:
        """Server observability snapshot (registry + cache + gate)."""
        return self._request("GET", "/stats")

    def close(self) -> None:
        """Drop the connection (idempotent)."""
        with self._lock:
            self._drop_connection()

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _encode_body(body: dict) -> bytes:
    """``body`` as strict JSON, in one ``json.dumps`` pass when possible.

    Plain JSON values (what every op sends) serialise as they stand.
    Only a body ``json.dumps`` refuses — a non-finite float, a numpy
    value, a set — takes the sanitising walk of
    :func:`repro.obs.jsonsafe.dumps`.  For str-keyed bodies the bytes are
    the same either way: ``json_safe`` leaves what the first pass accepts
    unchanged.
    """
    try:
        text = json.dumps(body, allow_nan=False)
    except (TypeError, ValueError):
        text = dumps(body)
    return text.encode("utf-8")


def _peer_closed(sock: socket.socket | None) -> bool:
    """Whether an idle kept-alive connection can no longer carry a request.

    A server sends nothing unasked, so an idle socket that polls readable
    holds the peer's end-of-stream (it closed or restarted) or bytes no
    request asked for; either way the connection must be replaced.
    """
    if sock is None:
        return False
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


__all__ = ["ReproClient"]
