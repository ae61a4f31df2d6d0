"""Concurrent append-vs-read torture test for the serving layer.

M reader threads hammer an :class:`~repro.server.app.AQPServer` with
queries while a writer streams ``append_rows`` batches through the same
server.  The contracts:

* **No torn table** — every COUNT(*) a reader observes corresponds to a
  complete append snapshot (initial rows plus a whole number of
  batches), never a half-applied one.  This is the snapshot guarantee:
  a query reads one published (catalog, samples) version, and an append
  (technique ``insert_rows``, tail write) publishes the next with one
  assignment.
* **Replay equality** — after the storm, the final approximate and
  exact answers are byte-identical to a fresh serial session replaying
  the same appends in the same order with no concurrency at all.

* **Acyclic lock order** — every lock a request can take is wrapped by a
  recorder that notes, per thread, which locks were already held when
  another was acquired.  Under a mixed storm of approximate and exact
  queries, ``stats`` and appends, the observed (held → acquired) graph
  must have no cycle: two code paths taking the same pair of locks in
  opposite orders could deadlock two handler threads.

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
from repro.obs.registry import get_registry
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


class LockOrderRecorder:
    """Observed lock-acquisition order across threads.

    Each thread keeps a stack of the recorded locks it holds; acquiring
    a lock records an edge from every lock already on that stack to the
    new one.  A cycle in the edge graph — a self-edge included — is a
    pair of code paths that can deadlock.
    """

    def __init__(self) -> None:
        self._held = threading.local()
        self._edges_lock = threading.Lock()
        self.edges: set[tuple[str, str]] = set()
        self.taken: set[str] = set()

    def _stack(self) -> list[str]:
        if not hasattr(self._held, "stack"):
            self._held.stack = []
        return self._held.stack

    def acquired(self, name: str) -> None:
        stack = self._stack()
        with self._edges_lock:
            self.taken.add(name)
            self.edges.update((held, name) for held in stack)
        stack.append(name)

    def released(self, name: str) -> None:
        stack = self._stack()
        # Remove the innermost hold: releases need not mirror acquires.
        del stack[len(stack) - 1 - stack[::-1].index(name)]

    def find_cycle(self):
        """One cycle of the observed graph as a lock-name path, or None."""
        graph: dict[str, set[str]] = {}
        for held, taken in self.edges:
            graph.setdefault(held, set()).add(taken)
        finished: set[str] = set()

        def visit(path: list[str]):
            for nxt in sorted(graph.get(path[-1], ())):
                if nxt in path:
                    return path[path.index(nxt):] + [nxt]
                if nxt not in finished:
                    cycle = visit(path + [nxt])
                    if cycle:
                        return cycle
            finished.add(path[-1])
            return None

        for start in sorted(graph):
            if start not in finished:
                cycle = visit([start])
                if cycle:
                    return cycle
        return None


class _RecordedLock:
    """A lock taken with ``with`` that reports to a recorder."""

    def __init__(self, lock, name: str, recorder: LockOrderRecorder) -> None:
        self._lock = lock
        self._name = name
        self._recorder = recorder

    def __enter__(self):
        self._lock.__enter__()
        self._recorder.acquired(self._name)
        return self

    def __exit__(self, *exc_info):
        self._recorder.released(self._name)
        return self._lock.__exit__(*exc_info)


def test_lock_order_recorder_reports_seeded_abba():
    recorder = LockOrderRecorder()
    a = _RecordedLock(threading.Lock(), "a", recorder)
    b = _RecordedLock(threading.Lock(), "b", recorder)

    def a_then_b():
        with a, b:
            pass

    def b_then_a():
        with b, a:
            pass

    # One thread after the other: the inversion is recorded without the
    # two threads ever actually deadlocking.
    for target, cycle in ((a_then_b, None), (b_then_a, ["a", "b", "a"])):
        thread = threading.Thread(target=target)
        thread.start()
        thread.join()
        assert recorder.find_cycle() == cycle


def test_lock_order_is_acyclic_under_storm(monkeypatch):
    session = _new_session()
    app = AQPServer(session, ServerConfig(max_inflight=N_READERS + 4))
    recorder = LockOrderRecorder()
    locks = (
        (get_cache().metrics, "_lock", "cache.metrics"),
        (get_registry(), "_lock", "registry"),
        (session, "_lock", "session"),
        (session._flight, "_lock", "session.flight"),
        (session, "_append_lock", "session.append"),
        (app, "_admission_lock", "server.admission"),
        (app._flight, "_lock", "server.flight"),
    )
    for owner, attr, name in locks:
        monkeypatch.setattr(
            owner, attr, _RecordedLock(getattr(owner, attr), name, recorder)
        )

    errors: list[tuple[int, dict]] = []
    done = threading.Event()
    # Distinct SQL text per client (trailing spaces) so the request
    # single-flight never collapses concurrent queries into one.
    requests = [
        {"op": "query", "sql": SWEEP_SQL + " " * i, "mode": "approx"}
        for i in range(N_READERS // 2)
    ] + [
        {"op": "query", "sql": COUNT_SQL + " " * i, "mode": "exact"}
        for i in range(N_READERS // 2)
    ] + [{"op": "stats"}]

    def client(request: dict) -> None:
        while not done.is_set():
            status, body = app.handle(request)
            if status != 200:
                errors.append((status, body))
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
        threading.Thread(target=client, args=(request,))
        for request in requests
    ] + [threading.Thread(target=writer)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
        assert not errors, f"requests failed during the storm: {errors[:3]}"
        # Every wrapper was really taken, so an unexercised path
        # cannot pass for an acyclic one.
        assert recorder.taken == {name for _, _, name in locks}
        cycle = recorder.find_cycle()
        assert cycle is None, (
            f"lock-order cycle {' -> '.join(cycle)}; observed edges "
            f"{sorted(recorder.edges)}"
        )
    finally:
        done.set()
        session.close()
