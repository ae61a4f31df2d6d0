"""Tests for the serving layer: protocol, admission, dedup, transport."""

from __future__ import annotations

import json
import math
import socket
import threading
import time

import numpy as np
import pytest

from repro.client import ReproClient, _encode_body
from repro.core import confidence
from repro.core.answer import ApproxAnswer, GroupEstimate
from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.engine.database import Database
from repro.engine.table import Table
from repro.errors import (
    DeadlineExceeded,
    InternalError,
    QueryError,
    RuntimePhaseError,
    SchemaError,
    ServerError,
    SQLSyntaxError,
    UnsupportedQueryError,
)
from repro.middleware.session import AQPSession
from repro.obs import jsonsafe
from repro.server import AQPServer, ServerConfig, make_server
from repro.server.app import _ReadWriteLock
from repro.server.protocol import (
    ERROR_CODES,
    answer_fingerprint,
    classify_error,
    encode_approx,
    encode_result,
    validate_append_request,
    validate_query_request,
)

SQL_COUNT = (
    "SELECT l_shipmode, COUNT(*) AS cnt FROM lineitem GROUP BY l_shipmode"
)


def _strict_loads(text: str):
    """json.loads that rejects NaN/Infinity tokens."""
    def _reject(token):
        raise AssertionError(f"non-strict JSON token {token!r}")
    return json.loads(text, parse_constant=_reject)


@pytest.fixture()
def session(tiny_tpch):
    session = AQPSession(tiny_tpch)
    session.install(
        SmallGroupSampling(
            SmallGroupConfig(base_rate=0.05, use_reservoir=False)
        )
    )
    yield session
    session.close()


@pytest.fixture()
def app(session):
    return AQPServer(session, ServerConfig(max_inflight=4))


class TestProtocol:
    def test_validate_query_request(self):
        sql, mode, explain, timeout = validate_query_request(
            {"sql": "SELECT 1", "mode": "exact", "timeout": 2}
        )
        assert (sql, mode, explain, timeout) == ("SELECT 1", "exact", False, 2.0)

    @pytest.mark.parametrize(
        "request_obj",
        [
            {},
            {"sql": ""},
            {"sql": 42},
            {"sql": "SELECT 1", "mode": "fast"},
            {"sql": "SELECT 1", "explain": "yes"},
            {"sql": "SELECT 1", "timeout": 0},
            {"sql": "SELECT 1", "timeout": -1},
            {"sql": "SELECT 1", "timeout": True},
            {"sql": "SELECT 1", "timeout": "soon"},
        ],
    )
    def test_validate_query_request_rejects(self, request_obj):
        with pytest.raises(QueryError):
            validate_query_request(request_obj)

    @pytest.mark.parametrize(
        "request_obj",
        [
            {},
            {"table": "t"},
            {"table": "t", "rows": {}},
            {"table": "t", "rows": {"a": []}},
            {"table": "t", "rows": {"a": [1], "b": [1, 2]}},
            {"table": "", "rows": {"a": [1]}},
        ],
    )
    def test_validate_append_request_rejects(self, request_obj):
        with pytest.raises(QueryError):
            validate_append_request(request_obj)

    def test_classify_error_codes(self):
        cases = [
            (DeadlineExceeded("late"), "deadline_exceeded", 504),
            (InternalError("session closed"), "session_closed", 503),
            (InternalError("invariant broken"), "internal", 500),
            (SQLSyntaxError("bad token"), "parse_error", 400),
            (UnsupportedQueryError("no joins"), "unsupported", 400),
            (QueryError("nope"), "invalid_request", 400),
            (SchemaError("no table"), "invalid_request", 400),
            (ValueError("surprise"), "internal", 500),
        ]
        for error, code, status in cases:
            assert classify_error(error) == (code, status)
            assert ERROR_CODES[code] == status

    def test_encode_result_is_canonical(self, session):
        result = session.sql(SQL_COUNT, mode="both")
        first = encode_result(result)
        second = encode_result(session.sql(SQL_COUNT, mode="both"))
        assert first["answer"] == second["answer"]
        assert first["fingerprint"] == second["fingerprint"]
        # Groups arrive sorted; keys are JSON-native lists.
        keys = [g["key"] for g in first["answer"]["approx"]["groups"]]
        assert keys == sorted(keys)
        # The whole payload is strict JSON.
        _strict_loads(json.dumps(first, allow_nan=False))

    def test_fingerprint_ignores_timing_but_not_values(self):
        answer = {"approx": {"groups": [{"key": ["a"], "estimates": [1.0]}]}}
        changed = {"approx": {"groups": [{"key": ["a"], "estimates": [2.0]}]}}
        assert answer_fingerprint(answer) == answer_fingerprint(answer)
        assert answer_fingerprint(answer) != answer_fingerprint(changed)

    def test_memoised_z_value_leaves_encodings_byte_equal(
        self, session, monkeypatch
    ):
        # 100 groups x 2 aggregates = 200 intervals per encode, one
        # norm.ppf each before the memo.  The memo may not move a digit.
        answer = ApproxAnswer(
            group_columns=("g",),
            aggregate_names=("cnt", "s"),
            groups={
                (f"g{i:03d}",): (
                    GroupEstimate(100.0 + i, variance=1.0 + i / 7.0),
                    GroupEstimate(3.5 * i, variance=(i % 9) / 3.0),
                )
                for i in range(100)
            },
            technique="small_group",
        )
        result = session.sql(SQL_COUNT, mode="approx")
        result.approx = answer

        def encodings() -> list[str]:
            payload = encode_result(result)
            del payload["timings"]
            return [json.dumps(payload, sort_keys=True)] + [
                json.dumps(encode_approx(answer, level), sort_keys=True)
                for level in (0.9, 0.95, 0.99)
            ]

        confidence.z_value.cache_clear()
        memoised = encodings()
        assert memoised == encodings()  # warm memo
        info = confidence.z_value.cache_info()
        assert info.misses == 3 and info.hits > 300
        monkeypatch.setattr(
            confidence, "z_value", confidence.z_value.__wrapped__
        )
        assert encodings() == memoised

    def test_z_value_rejects_bad_levels_every_time(self):
        for _ in range(2):
            for level in (0.0, 1.0, -0.5, 1.5):
                with pytest.raises(RuntimePhaseError):
                    confidence.z_value(level)


class TestReadWriteLock:
    def test_readers_share_writers_exclude(self):
        lock = _ReadWriteLock()
        state = {"readers": 0, "max_readers": 0, "writer_saw_readers": -1}
        gate = threading.Barrier(3)

        def reader():
            gate.wait()
            with lock.read_locked():
                state["readers"] += 1
                state["max_readers"] = max(
                    state["max_readers"], state["readers"]
                )
                time.sleep(0.05)
                state["readers"] -= 1

        def writer():
            gate.wait()
            time.sleep(0.01)  # let readers enter first
            with lock.write_locked():
                state["writer_saw_readers"] = state["readers"]

        threads = [
            threading.Thread(target=reader),
            threading.Thread(target=reader),
            threading.Thread(target=writer),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert state["max_readers"] == 2  # readers overlapped
        assert state["writer_saw_readers"] == 0  # writer waited them out


class TestDispatch:
    def test_query_op(self, app):
        status, body = app.handle({"op": "query", "sql": SQL_COUNT})
        assert status == 200 and body["ok"]
        assert body["answer"]["approx"]["n_groups"] > 0
        assert body["fingerprint"]
        assert body["coalesced"] is False

    def test_unknown_op(self, app):
        status, body = app.handle({"op": "explode"})
        assert status == 400
        assert body["error"]["code"] == "invalid_request"

    def test_non_dict_request(self, app):
        status, body = app.handle(["not", "an", "object"])
        assert status == 400
        assert body["error"]["code"] == "invalid_request"

    def test_parse_error(self, app):
        status, body = app.handle({"op": "query", "sql": "SELEKT nope"})
        assert status == 400
        assert body["error"]["code"] == "parse_error"

    def test_deadline_exceeded(self, app):
        status, body = app.handle(
            {"op": "query", "sql": SQL_COUNT, "mode": "exact",
             "timeout": 1e-9}
        )
        assert status == 504
        assert body["error"]["code"] == "deadline_exceeded"

    def test_closed_session(self, session):
        app = AQPServer(session)
        session.close()
        status, body = app.handle({"op": "query", "sql": SQL_COUNT})
        assert status == 503
        assert body["error"]["code"] == "session_closed"
        status, body = app.handle({"op": "health"})
        assert status == 503 and body["status"] == "closed"

    def test_health_and_stats(self, app):
        status, body = app.handle({"op": "health"})
        assert status == 200 and body["status"] == "ok"
        assert body["inflight"] == 0 and body["max_inflight"] == 4
        app.handle({"op": "query", "sql": SQL_COUNT})
        status, body = app.handle({"op": "stats"})
        assert status == 200
        assert body["registry"]["counters"]["server.requests.query"] >= 1
        assert body["server"]["max_inflight"] == 4
        _strict_loads(json.dumps(body, allow_nan=False))

    def test_append_op(self):
        table = Table.from_dict(
            "sales",
            {
                "region": ["a", "a", "b", "b"],
                "amount": [1.0, 2.0, 3.0, 4.0],
            },
        )
        own_session = AQPSession(Database([table]))
        try:
            app = AQPServer(own_session)
            status, body = app.handle(
                {
                    "op": "append",
                    "table": "sales",
                    "rows": {"region": ["c", "c"], "amount": [5.0, 6.0]},
                }
            )
            assert status == 200 and body["ok"]
            assert body["appended_rows"] == 2
            assert body["total_rows"] == 6
            status, body = app.handle(
                {
                    "op": "query",
                    "sql": (
                        "SELECT region, COUNT(*) AS n FROM sales "
                        "GROUP BY region"
                    ),
                    "mode": "exact",
                }
            )
            assert status == 200
            assert body["answer"]["exact"]["n_groups"] == 3
        finally:
            own_session.close()


class TestAdmissionAndDedup:
    def test_overload_rejection(self, session):
        app = AQPServer(session, ServerConfig(max_inflight=1))
        release = threading.Event()
        entered = threading.Event()
        outcome = {}

        original_sql = session.sql

        def slow_sql(*args, **kwargs):
            entered.set()
            release.wait(5)
            return original_sql(*args, **kwargs)

        session.sql = slow_sql
        try:
            worker = threading.Thread(
                target=lambda: outcome.setdefault(
                    "slow", app.handle({"op": "query", "sql": SQL_COUNT})
                )
            )
            worker.start()
            assert entered.wait(5)
            # Gate is full: a *different* query is rejected immediately.
            status, body = app.handle(
                {"op": "query", "sql": SQL_COUNT + " "}
            )
            assert status == 429
            assert body["error"]["code"] == "overloaded"
        finally:
            release.set()
            worker.join()
            session.sql = original_sql
        status, body = outcome["slow"]
        assert status == 200 and body["ok"]
        # Capacity released: new queries are admitted again.
        status, _ = app.handle({"op": "query", "sql": SQL_COUNT})
        assert status == 200

    def test_identical_inflight_queries_coalesce(self, session):
        app = AQPServer(session, ServerConfig(max_inflight=8))
        release = threading.Event()
        entered = threading.Event()
        calls = []
        original_sql = session.sql

        def slow_sql(text, **kwargs):
            calls.append(text)
            entered.set()
            release.wait(5)
            return original_sql(text, **kwargs)

        session.sql = slow_sql
        try:
            results = []
            threads = [
                threading.Thread(
                    target=lambda: results.append(
                        app.handle({"op": "query", "sql": SQL_COUNT})
                    )
                )
                for _ in range(4)
            ]
            threads[0].start()
            assert entered.wait(5)
            for t in threads[1:]:
                t.start()
            # Followers are queued on the leader's flight, not executing.
            time.sleep(0.1)
            release.set()
            for t in threads:
                t.join()
        finally:
            session.sql = original_sql
        assert len(calls) == 1  # one execution served all four requests
        assert len(results) == 4
        fingerprints = {body["fingerprint"] for status, body in results}
        assert len(fingerprints) == 1
        assert sum(body["coalesced"] for _, body in results) == 3

    def test_max_inflight_must_be_positive(self, session):
        with pytest.raises(QueryError):
            AQPServer(session, ServerConfig(max_inflight=0))


class TestHTTPTransport:
    @pytest.fixture()
    def served(self, session):
        server = make_server(session, config=ServerConfig(max_inflight=4))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ReproClient(port=server.server_address[1])
        yield client
        client.close()
        server.shutdown()
        server.server_close()

    def test_query_roundtrip(self, served):
        response = served.query(SQL_COUNT, mode="both")
        assert response["ok"]
        assert response["answer"]["approx"]["n_groups"] > 0
        assert response["answer"]["exact"]["n_groups"] > 0
        assert response["timings"]["approx_seconds"] > 0

    def test_error_carries_code_and_status(self, served):
        with pytest.raises(ServerError) as excinfo:
            served.query("SELEKT nope")
        assert excinfo.value.code == "parse_error"
        assert excinfo.value.status == 400

    def test_deadline_over_http(self, served):
        with pytest.raises(ServerError) as excinfo:
            served.query(SQL_COUNT, mode="exact", timeout=1e-9)
        assert excinfo.value.code == "deadline_exceeded"
        assert excinfo.value.status == 504

    def test_healthz_and_stats(self, served):
        health = served.healthz()
        assert health["status"] == "ok"
        served.query(SQL_COUNT)
        stats = served.stats()
        assert stats["registry"]["counters"]["server.requests.query"] >= 1

    def test_unknown_route(self, served):
        with pytest.raises(ServerError) as excinfo:
            served._request("GET", "/nope")
        assert excinfo.value.code == "invalid_request"

    def test_bad_body(self, served):
        import http.client

        conn = http.client.HTTPConnection(
            served.host, served.port, timeout=10
        )
        conn.request(
            "POST",
            "/query",
            body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        body = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert body["error"]["code"] == "invalid_request"

    def test_unreachable_server_raises(self):
        client = ReproClient(port=1)  # nothing listens there
        with pytest.raises(ServerError):
            client.healthz()


def _read_request(conn: socket.socket) -> str:
    """Read one HTTP request off ``conn``; returns its request line."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            return ""
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    while len(body) < length:
        body += conn.recv(65536)
    return lines[0].rsplit(" ", 1)[0]


class _ScriptedServer:
    """A one-thread socket server that records every request it reads.

    Without ``answer`` each request is read and the connection closed
    unanswered, as by a server that applied it and then lost the
    connection.  With ``answer`` the first request on a connection gets a
    kept-alive ``200 {"ok": true}``; then the server half-closes (its FIN
    is what a client sees of a server that exits) and records whatever
    the client still sends on that connection before closing it.
    """

    def __init__(self, answer: bool, port: int = 0) -> None:
        self.answer = answer
        self.requests: list[str] = []
        self.half_closed = threading.Event()
        self.listener = socket.socket()
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind(("127.0.0.1", port))
        self.listener.listen(8)
        self.listener.settimeout(0.05)
        self.port = self.listener.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self.listener.accept()
            except socket.timeout:
                continue
            except OSError:  # the listener was closed: no more connections
                return
            with conn:
                conn.settimeout(10)
                self._record(conn)
                if self.answer:
                    body = b'{"ok": true, "total_rows": 1}'
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\n"
                        b"Content-Type: application/json\r\n"
                        + f"Content-Length: {len(body)}\r\n\r\n".encode()
                        + body
                    )
                    conn.shutdown(socket.SHUT_WR)
                    self.half_closed.set()
                    self._record(conn)

    def _record(self, conn: socket.socket) -> None:
        line = _read_request(conn)
        if line:
            self.requests.append(line)

    def close_listener(self) -> None:
        """Stop accepting; a connection being served stays open."""
        self.listener.close()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        self.listener.close()


class TestClientConnection:
    def test_append_is_not_resent_after_a_lost_response(self):
        server = _ScriptedServer(answer=False)
        client = ReproClient(port=server.port, timeout=10)
        try:
            with pytest.raises(ServerError):
                client.append_rows("t", {"k": [1, 2]})
        finally:
            client.close()
            server.stop()
        assert server.requests == ["POST /append"]

    def test_query_keeps_its_one_retry(self):
        server = _ScriptedServer(answer=False)
        client = ReproClient(port=server.port, timeout=10)
        try:
            with pytest.raises(ServerError):
                client.query("SELECT COUNT(*) AS c FROM t")
        finally:
            client.close()
            server.stop()
        assert server.requests == ["POST /query"] * 2

    @pytest.mark.parametrize("op", ["query", "append"])
    def test_restarted_server_is_reconnected_to(self, op):
        def send(client):
            if op == "query":
                return client.query("SELECT COUNT(*) AS c FROM t")
            return client.append_rows("t", {"k": [1]})

        first = _ScriptedServer(answer=True)
        client = ReproClient(port=first.port, timeout=10)
        second = None
        try:
            assert send(client)["ok"]
            # The first server has sent its FIN on the kept-alive
            # connection and stops listening; a new one takes the port.
            assert first.half_closed.wait(10)
            first.close_listener()
            second = _ScriptedServer(answer=True, port=first.port)
            assert send(client)["ok"]
        finally:
            client.close()
            first.stop()
            if second is not None:
                second.stop()
        # Nothing was sent on the closed connection.
        assert len(first.requests) == 1
        assert len(second.requests) == 1


class TestClientWireBytes:
    @pytest.mark.parametrize(
        "body",
        [
            {"sql": "SELECT 1", "mode": "approx", "timeout": 2.5},
            {"table": "t", "rows": {"a": [1, 2.5, -3e300], "s": ["x", "é"]}},
            {"rows": {"x": [1.0, float("nan"), float("inf"), -math.inf]}},
            {"rows": {"x": [np.int64(3), np.float64(0.5), np.float32(0.25)]}},
            {"rows": {"x": np.arange(4), "y": np.asarray([1.5, np.nan])}},
            {"rows": {"x": (1, 2), "y": [(3, "a"), {"z": (None, True)}]}},
            {"rows": {"b": [np.bool_(True), False], "n": [None]}},
        ],
    )
    def test_body_bytes_equal_jsonsafe_dumps(self, body):
        assert _encode_body(body) == jsonsafe.dumps(body).encode("utf-8")

    def test_nan_appended_through_a_live_server_is_stored_as_nan(self):
        db = Database([Table.from_dict("t", {"k": [1, 2], "x": [0.5, 1.5]})])
        session = AQPSession(db)
        server = make_server(session)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ReproClient(port=server.server_address[1])
        try:
            response = client.append_rows(
                "t", {"k": [3, 4], "x": [float("nan"), 2.5]}
            )
            assert response["total_rows"] == 4
        finally:
            client.close()
            server.shutdown()
            server.server_close()
            session.close()
        stored = session.db.table("t").column("x").data
        assert np.isnan(stored[2]) and stored[3] == 2.5


class TestDrainingHealth:
    def test_healthz_returns_drain_payload_instead_of_raising(self, tiny_tpch):
        # A load balancer polls /healthz while the server drains; the
        # client must hand back the 503 "closed" payload, not throw.
        session = AQPSession(tiny_tpch)
        server = make_server(session, config=ServerConfig(max_inflight=2))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ReproClient(port=server.server_address[1])
        try:
            assert client.healthz()["status"] == "ok"
            session.close()
            drained = client.healthz()
            assert drained["status"] == "closed"
            assert drained["ok"] is False
            with pytest.raises(ServerError) as excinfo:
                client.query("SELECT COUNT(*) AS c FROM lineitem")
            assert excinfo.value.code == "session_closed"
        finally:
            client.close()
            server.shutdown()
            server.server_close()
            session.close()


class TestStarSchemaAppend:
    def test_append_routes_view_batch_to_technique_only(self):
        # Star-schema incremental maintenance: the technique classifies
        # against the joined view, so the wire batch carries dimension
        # attributes — but only the fact table's own columns may be
        # persisted (Table.concat demands identical column lists).
        from repro.datagen.tpch import generate_tpch

        db = generate_tpch(scale=1.0, z=1.5, rows_per_scale=400, seed=5)
        session = AQPSession(db)
        session.install(
            SmallGroupSampling(
                SmallGroupConfig(base_rate=0.1, use_reservoir=False, seed=3)
            )
        )
        app = AQPServer(session, ServerConfig(max_inflight=2))
        try:
            fact = db.fact_table
            fact_names = list(fact.column_names)
            n0 = fact.n_rows
            view = db.joined_view()
            rows = {
                name: [view.column(name).to_list()[0]] * 8
                for name in view.column_names
            }
            status, body = app.handle(
                {"op": "append", "table": fact.name, "rows": rows}
            )
            assert status == 200, body
            assert body["total_rows"] == n0 + 8
            merged = session.db.table(fact.name)
            assert merged.n_rows == n0 + 8
            assert list(merged.column_names) == fact_names
            # The post-append table still answers queries (the technique
            # absorbed the view-shaped batch without a rebuild).
            status, body = app.handle(
                {"op": "query", "sql": SQL_COUNT, "mode": "exact"}
            )
            assert status == 200, body
            total = sum(
                group["values"][0]
                for group in body["answer"]["exact"]["groups"]
            )
            assert total == n0 + 8
            # A fact-shaped batch is refused whole: the next accepted
            # append continues from the un-advanced row count.
            status, body = app.handle(
                {
                    "op": "append",
                    "table": fact.name,
                    "rows": {name: rows[name] for name in fact_names},
                }
            )
            assert status == 400, body
            assert session.db.table(fact.name).n_rows == n0 + 8
            status, body = app.handle(
                {"op": "append", "table": fact.name, "rows": rows}
            )
            assert status == 200, body
            assert body["total_rows"] == n0 + 16
        finally:
            session.close()
