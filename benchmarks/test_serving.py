"""Multi-client serving benchmark for the AQP server.

Spins up the real HTTP stack (``repro.server.make_server`` on a loopback
port) over a warm :class:`~repro.middleware.session.AQPSession`, then
hammers it with ``N in {1, 4, 16}`` concurrent :class:`repro.client.
ReproClient` threads rotating through a fixed approximate-query mix.
Emits ``BENCH_serving.json`` (QPS and p50/p99 latency per client count)
at the repo root.

Two different assertions:

* **Determinism is unconditional**: every answer served during the
  concurrent legs must be byte-identical (same ``fingerprint``) to a
  serial replay of the same query on the same session with no server
  and no concurrency at all.
* **Throughput is hardware-gated**: the warm-cache scaling bar
  (16-client QPS >= 3x single-client QPS) only applies when the box has
  at least 2 cores — on one CPU the GIL serialises the handler threads
  and the bar is meaningless.  The gate's outcome (pass value or an
  explicit ``"skipped (...)"`` string) is recorded in the JSON's
  ``gates`` object either way.

The >=3x bar on a 2-core box is intentionally more than core count:
warm-cache requests are dominated by lock-free cache reads and JSON
encoding, and identical in-flight queries coalesce through the server's
single-flight layer, so concurrency must buy real wall-clock overlap.

Sizes honour ``REPRO_BENCH_ROWS`` (fact rows; default 20000) so the CI
smoke step can run the same code path in seconds.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from pathlib import Path

import pytest

from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.client import ReproClient
from repro.datagen.synthetic import (
    CategoricalSpec,
    MeasureSpec,
    generate_flat_table,
)
from repro.engine.database import Database
from repro.middleware.session import AQPSession
from repro.server import ServerConfig, make_server
from repro.server.protocol import encode_result

CLIENT_COUNTS = (1, 4, 16)
ROWS = int(os.environ.get("REPRO_BENCH_ROWS", "20000"))
REQUESTS_PER_CLIENT = 24  # divisible by len(SQLS): each client sees the mix

SPEC = dict(
    categoricals=[
        CategoricalSpec("color", 24, 1.5),
        CategoricalSpec("status", 5, 0.8),
        CategoricalSpec("region", 8, 1.0),
    ],
    measures=[MeasureSpec("amount", distribution="lognormal")],
)

SQLS = (
    "SELECT color, COUNT(*) AS cnt, SUM(amount) AS total FROM flat "
    "GROUP BY color",
    "SELECT status, region, COUNT(*) AS cnt FROM flat "
    "GROUP BY status, region",
    "SELECT region, AVG(amount) AS mean FROM flat "
    "WHERE amount BETWEEN 0.5 AND 120.0 GROUP BY region",
)


@pytest.fixture(scope="module")
def session():
    db = Database([generate_flat_table("flat", ROWS, seed=83, **SPEC)])
    # Serving concurrency comes from the handler threads; the engine
    # itself is serial.
    session = AQPSession(db)
    session.install(
        SmallGroupSampling(
            SmallGroupConfig(base_rate=0.05, use_reservoir=False, seed=9)
        )
    )
    yield session
    session.close()


@pytest.fixture(scope="module")
def served(session):
    server = make_server(
        session, port=0, config=ServerConfig(max_inflight=max(CLIENT_COUNTS) + 4)
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address
    server.shutdown()
    server.server_close()
    thread.join(10)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    rank = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[rank]


def _storm(address, n_clients: int):
    """Run ``n_clients`` threads x REQUESTS_PER_CLIENT warm requests.

    Returns (elapsed_seconds, latencies, fingerprints_by_sql, errors).
    Each client starts the mix at a different offset so at any instant
    the server sees both identical (coalescable) and distinct queries.
    """
    host, port = address
    latencies: list[float] = []
    fingerprints: dict[str, set[str]] = {sql: set() for sql in SQLS}
    errors: list[str] = []
    lock = threading.Lock()
    barrier = threading.Barrier(n_clients + 1)

    def client(index: int) -> None:
        local_lat: list[float] = []
        local_fp: dict[str, set[str]] = {sql: set() for sql in SQLS}
        with ReproClient(host=host, port=port) as rc:
            barrier.wait()
            for i in range(REQUESTS_PER_CLIENT):
                sql = SQLS[(index + i) % len(SQLS)]
                start = time.perf_counter()
                try:
                    result = rc.query(sql, mode="approx")
                except Exception as exc:  # noqa: BLE001 - recorded, not raised
                    with lock:
                        errors.append(f"client {index}: {exc}")
                    return
                local_lat.append(time.perf_counter() - start)
                local_fp[sql].add(result["fingerprint"])
        with lock:
            latencies.extend(local_lat)
            for sql, seen in local_fp.items():
                fingerprints[sql] |= seen

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(n_clients)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join(120)
    elapsed = time.perf_counter() - start
    assert not any(t.is_alive() for t in threads), "client threads hung"
    return elapsed, latencies, fingerprints, errors


def test_serving_scaling(session, served):
    # Serial replay first: execute the mix directly on the session (no
    # server, no threads).  This both warms every cache the server legs
    # will hit and pins the expected byte-exact fingerprints.
    expected = {
        sql: encode_result(session.sql(sql, mode="approx"))["fingerprint"]
        for sql in SQLS
    }

    qps: dict[int, float] = {}
    p50_ms: dict[int, float] = {}
    p99_ms: dict[int, float] = {}
    for n_clients in CLIENT_COUNTS:
        elapsed, latencies, fingerprints, errors = _storm(served, n_clients)
        assert not errors, errors[:3]
        assert len(latencies) == n_clients * REQUESTS_PER_CLIENT
        # Determinism gate (unconditional): every concurrently-served
        # answer is byte-identical to the serial replay.
        for sql in SQLS:
            assert fingerprints[sql] == {expected[sql]}, (n_clients, sql)
        latencies.sort()
        qps[n_clients] = len(latencies) / elapsed
        p50_ms[n_clients] = _percentile(latencies, 0.50) * 1000.0
        p99_ms[n_clients] = _percentile(latencies, 0.99) * 1000.0

    stats = ReproClient(host=served[0], port=served[1]).stats()
    counters = stats.get("registry", {}).get("counters", {})

    cpu_count = os.cpu_count() or 1
    scaling = qps[16] / qps[1]
    gates: dict[str, object] = {}
    if cpu_count >= 2:
        gates["warm_qps_16_clients_vs_1_ge_3.0"] = round(scaling, 3)
    else:
        gates["warm_qps_16_clients_vs_1_ge_3.0"] = (
            f"skipped (cpu_count={cpu_count})"
        )

    payload = {
        "benchmark": "serving",
        "version": 1,
        "fact_rows": ROWS,
        "queries": len(SQLS),
        "requests_per_client": REQUESTS_PER_CLIENT,
        "cpu_count": cpu_count,
        "client_counts": list(CLIENT_COUNTS),
        "qps": {str(n): round(v, 2) for n, v in qps.items()},
        "latency_p50_ms": {str(n): round(v, 3) for n, v in p50_ms.items()},
        "latency_p99_ms": {str(n): round(v, 3) for n, v in p99_ms.items()},
        "qps_scaling_16_vs_1": round(scaling, 3),
        "server_counters": {
            name: counters[name]
            for name in sorted(counters)
            if name.startswith("server.")
        },
        "gates": gates,
        "answers_identical_to_serial_replay": True,
    }
    out = Path(__file__).resolve().parents[1] / "BENCH_serving.json"
    out.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")

    applied = {
        name: value
        for name, value in gates.items()
        if not isinstance(value, str)
    }
    if "warm_qps_16_clients_vs_1_ge_3.0" in applied:
        assert applied["warm_qps_16_clients_vs_1_ge_3.0"] >= 3.0, payload
    if not applied:
        pytest.skip(
            "all throughput gates skipped: "
            + "; ".join(
                f"{name}: {value}" for name, value in sorted(gates.items())
            )
        )
