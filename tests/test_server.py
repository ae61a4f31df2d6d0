"""Tests for the serving layer: protocol, admission, snapshots, transport."""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import json
import math
import socket
import threading

import numpy as np
import pytest

from repro.client import ReproClient, _encode_body
from repro.core import confidence
from repro.core.answer import ApproxAnswer, GroupEstimate
from repro.core.family import SampleFamily
from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.datagen.synthetic import (
    CategoricalSpec,
    MeasureSpec,
    generate_flat_table,
)
from repro.engine.cache import get_cache
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
from repro.obs import get_registry, jsonsafe
from repro.server import AQPServer, ServerConfig, make_server
from repro.server.http import ReproHTTPServer
from repro.server.protocol import (
    ERROR_CODES,
    _canonical_key,
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
        # ``explain`` is ignored like any other unknown field.
        assert validate_query_request(
            {"sql": "SELECT 1", "mode": "exact", "timeout": 2, "explain": "x"}
        ) == ("SELECT 1", "exact", 2.0)

    @pytest.mark.parametrize(
        "request_obj",
        [
            {},
            {"sql": ""},
            {"sql": 42},
            {"sql": "SELECT 1", "mode": "fast"},
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


class TestDispatch:
    def test_query_op(self, app):
        status, body = app.handle({"op": "query", "sql": SQL_COUNT})
        assert status == 200 and body["ok"]
        assert body["answer"]["approx"]["n_groups"] > 0
        assert body["fingerprint"]

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
            # Gate is full: the next query is rejected immediately.
            status, body = app.handle({"op": "query", "sql": SQL_COUNT})
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

    def test_identical_concurrent_queries_each_execute(self, session):
        app = AQPServer(session, ServerConfig(max_inflight=8))
        # Each call waits until all four are inside ``session.sql``: the
        # requests are in flight together and none is answered by another.
        together = threading.Barrier(4, timeout=5)
        calls = []
        original_sql = session.sql

        def concurrent_sql(text, **kwargs):
            calls.append(text)
            together.wait()
            return original_sql(text, **kwargs)

        session.sql = concurrent_sql
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
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            session.sql = original_sql
        assert calls == [SQL_COUNT] * 4
        assert [status for status, _ in results] == [200] * 4
        fingerprints = {body["fingerprint"] for _, body in results}
        assert len(fingerprints) == 1
        # Each body is the encoded answer plus ``ok``, nothing else.
        for _, body in results:
            assert set(body) == {"ok", "sql", "answer", "fingerprint", "timings"}

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


def _nan_database() -> Database:
    """Table ``t``: categorical ``g``, float key ``f``, measures ``x``, ``y``."""
    n = 2000
    values = np.random.default_rng(0).normal(10.0, 2.0, n)
    return Database([Table.from_dict("t", {
        "g": [f"g{i % 5}" for i in range(n)],
        "f": [float(i % 4) for i in range(n)],
        "x": values.tolist(),
        "y": (values * 1e300).tolist(),  # squares overflow to inf
    })])


def _nan_batch(m: int = 400) -> dict[str, list]:
    """A batch with a NaN float key on every row and NaN in half of ``x``."""
    return {
        "g": [f"g{i % 5}" for i in range(m)],
        "f": [math.nan] * m,
        "x": [math.nan if i % 2 else 1.0 for i in range(m)],
        "y": [1e300] * m,
    }


def _raw_answer(result) -> dict:
    """``result``'s answer laid out as the encoders lay it out, unscrubbed."""
    answer: dict = {}
    if result.approx is not None:
        a = result.approx
        answer["approx"] = {
            "technique": a.technique,
            "group_columns": a.group_columns,
            "aggregate_names": a.aggregate_names,
            "n_groups": a.n_groups,
            "rows_scanned": a.rows_scanned,
            "confidence_level": 0.95,
            "groups": [
                {
                    "key": key,
                    "estimates": [e.value for e in a.groups[key]],
                    "variances": [e.variance for e in a.groups[key]],
                    "intervals": [
                        e.confidence_interval(0.95) for e in a.groups[key]
                    ],
                    "exact": [e.exact for e in a.groups[key]],
                }
                for key in sorted(a.groups, key=_canonical_key)
            ],
        }
    if result.exact is not None:
        e = result.exact
        answer["exact"] = {
            "group_columns": e.group_columns,
            "aggregate_names": e.aggregate_names,
            "n_groups": e.n_groups,
            "groups": [
                {"key": key, "values": e.rows[key]}
                for key in sorted(e.rows, key=_canonical_key)
            ],
        }
    return answer


class _FixedApp:
    """An app that answers every request with ``body``."""

    def __init__(self, body: dict) -> None:
        self.body = body

    def handle(self, request: object) -> tuple[int, dict]:
        return 200, self.body


@contextlib.contextmanager
def _served(app):
    """``app`` behind a live HTTP server; yields a raw keep-alive connection."""
    server = ReproHTTPServer(("127.0.0.1", 0), app)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    conn = http.client.HTTPConnection(
        "127.0.0.1", server.server_address[1], timeout=30
    )
    try:
        yield conn
    finally:
        conn.close()
        server.shutdown()
        server.server_close()


def _exchange(conn, method: str, path: str, body: bytes | None = None):
    """``(status, raw response bytes)`` of one request on ``conn``."""
    conn.request(method, path, body=body)
    response = conn.getresponse()
    return response.status, response.read()


class TestStrictJSON:
    """Responses are strict as built: one ``json.dumps`` writes each."""

    @pytest.fixture(scope="class")
    def nan_session(self):
        session = AQPSession(_nan_database())
        session.install(
            SmallGroupSampling(
                SmallGroupConfig(base_rate=0.2, use_reservoir=False, seed=1)
            )
        )
        session.append_rows("t", Table.from_dict("t", _nan_batch()))
        yield session
        session.close()

    @pytest.mark.parametrize(
        "sql, mode",
        [
            # A NaN group key on a float GROUP BY column.
            ("SELECT f, COUNT(*) AS n FROM t GROUP BY f", "approx"),
            ("SELECT f, COUNT(*) AS n FROM t GROUP BY f", "exact"),
            ("SELECT f, COUNT(*) AS n FROM t GROUP BY f", "both"),
            # Exact SUM/MIN/MAX over a NaN.
            (
                "SELECT g, SUM(x) AS s, MIN(x) AS lo, MAX(x) AS hi "
                "FROM t GROUP BY g",
                "exact",
            ),
            # NaN estimates, variances and intervals.
            ("SELECT g, SUM(x) AS s, AVG(x) AS a FROM t GROUP BY g", "approx"),
            ("SELECT g, SUM(x) AS s, AVG(x) AS a FROM t GROUP BY g", "both"),
            # Finite estimates with an infinite variance and interval.
            ("SELECT g, SUM(y) AS s FROM t GROUP BY g", "approx"),
        ],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_slots_match_the_json_safe_reference(
        self, nan_session, sql, mode
    ):
        result = nan_session.sql(sql, mode=mode)
        raw = _raw_answer(result)
        assert "NaN" in json.dumps(raw) or "Infinity" in json.dumps(raw)
        reference = jsonsafe.dumps(raw, sort_keys=True)
        body = encode_result(result)
        assert (
            json.dumps(body["answer"], sort_keys=True, allow_nan=False)
            == reference
        )
        assert body["fingerprint"] == hashlib.sha256(
            reference.encode("utf-8")
        ).hexdigest()
        body["ok"] = True
        with _served(_FixedApp(body)) as conn:
            status, wire = _exchange(conn, "GET", "/healthz")
        assert status == 200
        assert wire == jsonsafe.dumps(body, sort_keys=True).encode("utf-8")

    def test_a_leaked_nan_is_a_500_and_the_connection_survives(self):
        app = _FixedApp({"ok": True, "x": float("nan")})
        errors = get_registry().counter("server.errors")
        with _served(app) as conn:
            status, wire = _exchange(conn, "GET", "/healthz")
            sock = conn.sock
            assert status == 500
            assert _strict_loads(wire.decode())["error"]["code"] == "internal"
            app.body = {"ok": True}
            status, wire = _exchange(conn, "GET", "/healthz")
            assert conn.sock is sock  # the same kept-alive connection
        assert status == 200 and json.loads(wire) == {"ok": True}
        assert get_registry().counter("server.errors") == errors + 1

    def test_served_responses_never_scrub(self, monkeypatch):
        def refuse(value):
            raise AssertionError("a served response was scrubbed")

        monkeypatch.setattr(jsonsafe, "json_safe", refuse)
        session = AQPSession(_nan_database())
        session.install(
            SmallGroupSampling(
                SmallGroupConfig(base_rate=0.2, use_reservoir=False, seed=1)
            )
        )
        sql = "SELECT f, SUM(x) AS s FROM t GROUP BY f"
        rows = {**_nan_batch(8), "f": [0.5] * 8, "x": [2.0] * 8}
        requests = [
            ("POST", "/query", {"sql": sql, "mode": "approx"}),
            ("POST", "/query", {"sql": sql, "mode": "exact"}),
            ("POST", "/append", {"table": "t", "rows": rows}),
            ("POST", "/query", {"sql": sql, "mode": "both"}),
            ("GET", "/healthz", None),
            ("GET", "/stats", None),
            ("GET", "/nope", None),
        ]
        statuses = []
        try:
            with _served(AQPServer(session)) as conn:
                for method, path, body in requests:
                    data = None if body is None else json.dumps(body).encode()
                    status, wire = _exchange(conn, method, path, data)
                    _strict_loads(wire.decode("utf-8"))
                    statuses.append(status)
        finally:
            session.close()
        assert statuses == [200] * 6 + [400]

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/append", b'{"table": "t", "rows": {"x": [NaN]}}'),
            ("/query", b'{"sql": "SELECT COUNT(*) FROM t", "mode": "exact", '
                       b'"timeout": Infinity}'),
            ("/query", b'{"sql": "SELECT COUNT(*) FROM t", "mode": "exact", '
                       b'"timeout": -Infinity}'),
        ],
    )
    def test_non_finite_request_tokens_are_refused(self, path, body):
        session = AQPSession(_nan_database())
        try:
            with _served(AQPServer(session)) as conn:
                status, wire = _exchange(conn, "POST", path, body)
        finally:
            session.close()
        assert status == 400
        error = _strict_loads(wire.decode("utf-8"))["error"]
        assert error["code"] == "invalid_request"
        assert "not strict JSON" in error["message"]
        assert session.db.table("t").n_rows == 2000


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


class TestPinnedSnapshots:
    """A query reads one published (catalog, samples) version; an append
    publishes the next one without ever making a reader wait."""

    FLAT_SPEC = dict(
        categoricals=[
            CategoricalSpec("color", 20, 1.5),
            CategoricalSpec("status", 4, 0.8),
        ],
        measures=[MeasureSpec("amount", distribution="lognormal")],
    )
    COUNT_SQL = "SELECT status, COUNT(*) AS cnt FROM flat GROUP BY status"
    INITIAL_ROWS = 2048
    BATCH_ROWS = 512

    def _session(self) -> AQPSession:
        get_cache().clear()
        table = generate_flat_table(
            "flat", self.INITIAL_ROWS, seed=71, **self.FLAT_SPEC
        )
        session = AQPSession(Database([table]))
        session.install(
            SmallGroupSampling(
                SmallGroupConfig(base_rate=0.1, use_reservoir=False, seed=7)
            )
        )
        return session

    def _append_request(self) -> dict:
        batch = generate_flat_table(
            "flat", self.BATCH_ROWS, seed=91, **self.FLAT_SPEC
        )
        rows = {
            name: batch.column(name).to_list() for name in batch.column_names
        }
        return {"op": "append", "table": "flat", "rows": rows}

    @staticmethod
    def _exact_total(body: dict) -> int:
        return sum(
            group["values"][0] for group in body["answer"]["exact"]["groups"]
        )

    def test_reader_never_waits_for_an_append(self, monkeypatch):
        session = self._session()
        app = AQPServer(session, ServerConfig(max_inflight=8))
        queries = {
            mode: {"op": "query", "sql": self.COUNT_SQL, "mode": mode}
            for mode in ("exact", "approx", "both")
        }
        before = {
            mode: app.handle(request)[1]["fingerprint"]
            for mode, request in queries.items()
        }
        entered = threading.Event()
        release = threading.Event()
        with_batch = SampleFamily.with_batch

        def blocked_with_batch(family, batch):
            entered.set()
            release.wait(30)
            return with_batch(family, batch)

        monkeypatch.setattr(SampleFamily, "with_batch", blocked_with_batch)
        acked = []
        writer = threading.Thread(
            target=lambda: acked.append(app.handle(self._append_request()))
        )
        answers = {}
        reader = threading.Thread(
            target=lambda: answers.update(
                (mode, app.handle(req)) for mode, req in queries.items()
            )
        )
        try:
            writer.start()
            assert entered.wait(10)
            reader.start()
            reader.join(10)
            assert not reader.is_alive(), "a query waited for the append"
            for mode, (status, body) in answers.items():
                assert status == 200, body
                assert body["fingerprint"] == before[mode], mode
        finally:
            release.set()
            writer.join(30)
            reader.join(30)
        try:
            assert acked[0][0] == 200, acked
            status, body = app.handle(queries["exact"])
            assert status == 200, body
            assert self._exact_total(body) == (
                self.INITIAL_ROWS + self.BATCH_ROWS
            )
        finally:
            session.close()

    def test_query_after_an_acked_append_reads_it(self, monkeypatch):
        control = self._session()
        try:
            version_n = encode_result(
                control.sql(self.COUNT_SQL, mode="both")
            )["fingerprint"]
        finally:
            control.close()
        session = self._session()
        app = AQPServer(session, ServerConfig(max_inflight=8))
        query = {"op": "query", "sql": self.COUNT_SQL, "mode": "both"}
        technique = session.technique
        plan = technique.plan
        entered = threading.Event()
        release = threading.Event()
        planned = []

        def first_plan_blocks(samples, query, rate=None):
            planned.append(samples)
            if len(planned) == 1:
                entered.set()
                release.wait(30)
            return plan(samples, query, rate)

        monkeypatch.setattr(technique, "plan", first_plan_blocks)
        pinned = []
        reader = threading.Thread(
            target=lambda: pinned.append(app.handle(query))
        )
        acked = []
        appender = threading.Thread(
            target=lambda: acked.append(app.handle(self._append_request()))
        )
        try:
            reader.start()
            assert entered.wait(10)
            appender.start()
            appender.join(10)
            assert not appender.is_alive(), "the append waited for a query"
            status, body = acked[0]
            assert status == 200, body
            grown = self.INITIAL_ROWS + self.BATCH_ROWS
            assert body["total_rows"] == grown
            # Sent after the ack: reads version n+1 while the query
            # pinned at version n is still running.
            status, body = app.handle(query)
            assert status == 200, body
            assert self._exact_total(body) == grown
        finally:
            release.set()
            reader.join(30)
            appender.join(30)
        try:
            status, body = pinned[0]
            assert status == 200, body
            assert self._exact_total(body) == self.INITIAL_ROWS
            assert body["fingerprint"] == version_n
        finally:
            session.close()
