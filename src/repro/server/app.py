"""Transport-independent serving core: admission and snapshots.

:class:`AQPServer` wraps one shared
:class:`~repro.middleware.session.AQPSession` and turns decoded protocol
requests (plain dicts) into ``(http_status, response_dict)`` pairs.  The
HTTP layer (:mod:`repro.server.http`) is a thin adapter over
:meth:`AQPServer.handle`; tests drive :meth:`handle` directly.

Concurrency discipline, in the order a request meets it:

1. **Validation** — malformed requests are rejected before consuming
   any capacity.
2. **Admission gate** — a bounded in-flight counter; when
   ``max_inflight`` requests are already executing, new queries are
   rejected immediately with ``overloaded`` (HTTP 429) instead of
   queueing unboundedly behind slow queries.  An admitted query is
   answered by its own ``session.sql`` call, identical concurrent
   queries included; its deadline is checked inside that call.
3. **Snapshot semantics** — no lock orders queries against appends.
   Each query reads the session's published
   :class:`~repro.middleware.session.Snapshot` (catalog plus samples)
   once and answers from it; an append publishes the next snapshot with
   one assignment, so a query never waits for an append nor observes
   half of one, and a query admitted after an append's ack reads it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.engine.cache import get_cache
from repro.engine.column import Column
from repro.engine.database import Database
from repro.engine.deadline import Deadline
from repro.engine.table import Table
from repro.errors import QueryError, ReproError
from repro.middleware.session import AQPSession
from repro.obs.registry import get_registry
from repro.server.protocol import (
    PROTOCOL_VERSION,
    encode_result,
    error_response,
    validate_append_request,
    validate_query_request,
)


@dataclass(frozen=True)
class ServerConfig:
    """Tunables for one :class:`AQPServer`.

    Attributes
    ----------
    max_inflight:
        Queries allowed to execute concurrently before the admission
        gate rejects with ``overloaded``.  Appends do not count against
        the gate (they serialise on the session's append lock instead).
    default_deadline:
        Per-request deadline (seconds) applied when the request does not
        carry its own ``timeout``; ``None`` means unbounded.
    """

    max_inflight: int = 16
    default_deadline: float | None = None


class AQPServer:
    """Concurrent request broker over one shared :class:`AQPSession`."""

    def __init__(
        self,
        session: AQPSession,
        config: ServerConfig | None = None,
    ) -> None:
        self.session = session
        self.config = config or ServerConfig()
        if self.config.max_inflight < 1:
            raise QueryError(
                f"max_inflight must be >= 1, got {self.config.max_inflight}"
            )
        self._admission_lock = threading.Lock()
        self._inflight = 0

    # ------------------------------------------------------------------
    # Admission gate
    # ------------------------------------------------------------------
    @contextmanager
    def _admitted(self) -> Iterator[bool]:
        """Reserve one in-flight slot; yields False when saturated.

        Never blocks: overload is reported to the client immediately
        (fast 429) so it can back off, instead of parking its request in
        an unbounded queue that hides the saturation.
        """
        with self._admission_lock:
            if self._inflight >= self.config.max_inflight:
                admitted = False
            else:
                self._inflight += 1
                admitted = True
        try:
            yield admitted
        finally:
            if admitted:
                with self._admission_lock:
                    self._inflight -= 1

    @property
    def inflight(self) -> int:
        """Queries currently holding an admission slot."""
        with self._admission_lock:
            return self._inflight

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def handle(self, request: dict) -> tuple[int, dict]:
        """Process one decoded request; returns ``(http_status, body)``.

        Never raises: every failure is mapped to a protocol error
        response (``docs/serving.md``).
        """
        registry = get_registry()
        registry.incr("server.requests")
        if not isinstance(request, dict):
            return error_response(
                QueryError("request body must be a JSON object"),
                code="invalid_request",
            )
        op = request.get("op")
        handler = {
            "query": self._handle_query,
            "append": self._handle_append,
            "health": self._handle_health,
            "stats": self._handle_stats,
        }.get(op)
        if handler is None:
            return error_response(
                QueryError(
                    f"unknown op {op!r}; expected query, append, health, "
                    "or stats"
                ),
                code="invalid_request",
            )
        registry.incr(f"server.requests.{op}")
        try:
            return handler(request)
        except ReproError as error:
            registry.incr("server.errors")
            return error_response(error)
        except Exception as error:  # noqa: BLE001 — wire boundary
            registry.incr("server.errors")
            return error_response(error, code="internal")

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    def _handle_query(self, request: dict) -> tuple[int, dict]:
        sql, mode, timeout = validate_query_request(request)
        registry = get_registry()
        with self._admitted() as admitted:
            if not admitted:
                registry.incr("server.rejected_overload")
                return error_response(
                    QueryError(
                        f"server at capacity "
                        f"({self.config.max_inflight} in flight); retry"
                    ),
                    code="overloaded",
                )
            seconds = (
                timeout
                if timeout is not None
                else self.config.default_deadline
            )
            deadline = Deadline(seconds) if seconds is not None else None
            result = self.session.sql(sql, mode=mode, deadline=deadline)
            body = encode_result(result)
            body["ok"] = True
            return 200, body

    def _handle_append(self, request: dict) -> tuple[int, dict]:
        table_name, columns = validate_append_request(request)
        # Each string column is coded once, against the live catalog
        # column it will be stored with (the table's own, or the
        # dimension attribute of the fact table's joined view), so the
        # table and the samples take its codes as they stand.
        live = _live_columns(self.session.db, table_name)
        try:
            batch = Table(
                table_name,
                {
                    name: Column.from_values(values, like=live.get(name))
                    for name, values in columns.items()
                },
            )
        except ReproError:
            raise
        except Exception as error:
            raise QueryError(f"cannot build append batch: {error}") from error
        merged = self.session.append_rows(table_name, batch)
        get_registry().incr("server.rows_appended", batch.n_rows)
        return 200, {
            "ok": True,
            "table": table_name,
            "appended_rows": batch.n_rows,
            "total_rows": merged.n_rows,
        }

    def _handle_health(self, request: dict) -> tuple[int, dict]:
        closed = self.session.closed
        body = {
            "ok": not closed,
            "status": "closed" if closed else "ok",
            "protocol_version": PROTOCOL_VERSION,
            "inflight": self.inflight,
            "max_inflight": self.config.max_inflight,
        }
        return (503 if closed else 200), body

    def _handle_stats(self, request: dict) -> tuple[int, dict]:
        return 200, {
            "ok": True,
            "registry": get_registry().snapshot(),
            "cache": get_cache().snapshot(),
            "server": {
                "inflight": self.inflight,
                "max_inflight": self.config.max_inflight,
            },
        }


def _live_columns(db: Database, name: str) -> dict[str, Column]:
    """The catalog columns a batch for table ``name`` is coded against.

    The fact table's batches are view-shaped, so for the fact table of a
    star schema these are the joined view's columns; an unknown table
    has none (the append itself reports it).
    """
    if not db.has_table(name):
        return {}
    if db.star_schema is not None and name == db.star_schema.fact_table:
        return db.view_sources()
    table = db.table(name)
    return {c: table.column(c) for c in table.column_names}


__all__ = ["AQPServer", "ServerConfig"]
