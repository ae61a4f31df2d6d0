"""Concurrent append-vs-read torture test for the serving layer.

M reader threads hammer an :class:`~repro.server.app.AQPServer` with
queries while a writer streams ``append_rows`` batches through the same
server.  The contracts:

* **No torn table** — every COUNT(*) a reader observes corresponds to a
  complete append snapshot (initial rows plus a whole number of
  batches), never a half-applied one.  This is the RW-lock snapshot
  guarantee: appends (tail write and invalidation, technique
  ``insert_rows``, catalog swap) are atomic with respect to queries.
* **Replay equality** — after the storm, the final approximate and
  exact answers are byte-identical to a fresh serial session replaying
  the same appends in the same order with no concurrency at all.

The engine is serial, so the HTTP handler threads driven here are the
only concurrency in the system.
"""

from __future__ import annotations

import threading

from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.datagen.synthetic import (
    CategoricalSpec,
    MeasureSpec,
    generate_flat_table,
)
from repro.engine.cache import get_cache
from repro.engine.database import Database
from repro.middleware.session import AQPSession
from repro.server import AQPServer, ServerConfig
from repro.server.protocol import encode_result

SPEC = dict(
    categoricals=[
        CategoricalSpec("color", 20, 1.5),
        CategoricalSpec("status", 4, 0.8),
    ],
    measures=[MeasureSpec("amount", distribution="lognormal")],
)

COUNT_SQL = "SELECT COUNT(*) AS cnt FROM flat"
SWEEP_SQL = (
    "SELECT status, COUNT(*) AS cnt, SUM(amount) AS total FROM flat "
    "WHERE amount BETWEEN 0.5 AND 80.0 GROUP BY status"
)

BATCH_ROWS = 512
INITIAL_ROWS = 4 * BATCH_ROWS
N_BATCHES = 4
N_READERS = 4
BATCH_SEEDS = tuple(range(91, 91 + N_BATCHES))


def _new_session() -> AQPSession:
    get_cache().clear()
    session = AQPSession(
        Database([generate_flat_table("flat", INITIAL_ROWS, seed=71, **SPEC)])
    )
    session.install(
        SmallGroupSampling(
            SmallGroupConfig(base_rate=0.1, use_reservoir=False, seed=7)
        )
    )
    return session


def _batch(seed: int):
    return generate_flat_table("flat", BATCH_ROWS, seed=seed, **SPEC)


def _final_answers(session: AQPSession) -> tuple[str, str]:
    approx = encode_result(session.sql(SWEEP_SQL, mode="approx"))
    exact = encode_result(session.sql(COUNT_SQL, mode="exact"))
    return approx["fingerprint"], exact["fingerprint"]


def _serial_replay() -> tuple[str, str]:
    """The no-concurrency control: same appends, same order, one thread."""
    session = _new_session()
    try:
        for seed in BATCH_SEEDS:
            session.append_rows("flat", _batch(seed))
        return _final_answers(session)
    finally:
        session.close()


def test_append_vs_read_storm():
    baseline = _serial_replay()

    session = _new_session()
    app = AQPServer(session, ServerConfig(max_inflight=N_READERS + 2))
    valid_counts = {
        INITIAL_ROWS + i * BATCH_ROWS for i in range(N_BATCHES + 1)
    }
    torn: list[float] = []
    errors: list[tuple[int, dict]] = []
    done = threading.Event()

    def reader(index: int) -> None:
        # Distinct SQL text per reader (trailing spaces) so the request
        # single-flight never collapses the readers into one execution —
        # this test wants genuine concurrent reads against the writer.
        sql = COUNT_SQL + " " * index
        while not done.is_set():
            status, body = app.handle(
                {"op": "query", "sql": sql, "mode": "exact"}
            )
            if status != 200:
                errors.append((status, body))
                return
            count = body["answer"]["exact"]["groups"][0]["values"][0]
            if count not in valid_counts:
                torn.append(count)
                return

    def writer() -> None:
        try:
            for seed in BATCH_SEEDS:
                batch = _batch(seed)
                status, body = app.handle(
                    {
                        "op": "append",
                        "table": "flat",
                        "rows": {
                            name: batch.column(name).to_list()
                            for name in batch.column_names
                        },
                    }
                )
                if status != 200:
                    errors.append((status, body))
                    return
        finally:
            done.set()

    threads = [
        threading.Thread(target=reader, args=(i,)) for i in range(N_READERS)
    ]
    writer_thread = threading.Thread(target=writer)
    try:
        for t in threads:
            t.start()
        writer_thread.start()
        writer_thread.join(60)
        done.set()
        for t in threads:
            t.join(60)
        assert not writer_thread.is_alive()
        assert not any(t.is_alive() for t in threads)
        assert not errors, f"requests failed during the storm: {errors[:3]}"
        assert not torn, (
            f"reader observed torn row counts {torn}; "
            f"valid snapshots are {sorted(valid_counts)}"
        )
        # Every batch landed exactly once.
        assert session.db.table("flat").n_rows == max(valid_counts)
        # The concurrent end state answers byte-identically to the
        # serial replay of the same appends.
        assert _final_answers(session) == baseline, (
            "post-storm answers drifted from serial replay"
        )
    finally:
        done.set()
        session.close()
