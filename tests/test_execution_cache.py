"""Per-column memos: hits, lifetime, append refresh, thread safety.

The memo contract under test: derived state is served only from the
column it was computed on and only while the ``also`` columns are the
*same objects* it was computed with; an append publishes new columns
whose memos start empty; a memo dies with its column; and answers with
warm memos are identical to answers after ``get_cache().clear()``.
"""

import copy
import gc
import pickle
import threading
import weakref

import numpy as np

from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.datagen.synthetic import (
    CategoricalSpec,
    MeasureSpec,
    generate_flat_table,
)
from repro.engine.cache import get_cache
from repro.engine.column import Column
from repro.engine.database import Database
from repro.engine.executor import dense_ids, execute
from repro.engine.expressions import AggFunc, AggregateSpec, InSet, Query
from repro.engine.schema import ForeignKey, StarSchema
from repro.engine.table import Table
from repro.middleware import AQPSession
from repro.sql.parser import parse_query

COUNT = AggregateSpec(AggFunc.COUNT, alias="cnt")

SPEC = dict(
    categoricals=[
        CategoricalSpec("color", 20, 1.5),
        CategoricalSpec("status", 4, 0.8),
    ],
    measures=[MeasureSpec("amount", distribution="lognormal")],
)


def star_db() -> Database:
    fact = Table.from_dict(
        "sales",
        {
            "cust_id": [i % 5 for i in range(40)],
            "amount": [float(i) for i in range(40)],
            "channel": ["web" if i % 3 else "store" for i in range(40)],
        },
    )
    dim = Table.from_dict(
        "customers",
        {
            "cust_id": list(range(5)),
            "region": [f"r{i % 2}" for i in range(5)],
        },
    )
    schema = StarSchema(
        fact_table="sales",
        foreign_keys=(ForeignKey("cust_id", "customers", "cust_id"),),
    )
    return Database([fact, dim], schema)


def answer_values(answer):
    """Group -> estimate-value tuples, for exact answer comparison."""
    return {
        group: tuple(e.value for e in estimates)
        for group, estimates in answer.groups.items()
    }


def memo_entries(column: Column) -> dict:
    """The (kind, key) -> (also, value) entries memoised on ``column``."""
    memo = column._memo
    return {} if memo is None else memo[1]


class _Value:
    """A weak-referenceable memo value."""


class TestDenseIdsEmpty:
    def test_single_empty_array(self):
        ids, n = dense_ids([np.array([], dtype=np.int64)])
        assert ids.size == 0
        assert n == 0

    def test_empty_arrays_mid_loop(self):
        # Regression: the .max() guard must hold on every iteration, not
        # just the first array.
        empty = np.array([], dtype=np.int64)
        ids, n = dense_ids([empty, empty, empty])
        assert ids.size == 0
        assert n == 0


class TestExecutionCache:
    def test_hit_requires_same_object(self):
        col = Column.ints([1, 2, 3])
        assert col.derived("k", None, lambda: "value") == "value"
        assert col.derived("k", None, lambda: "recomputed") == "value"
        replacement = Column.ints([1, 2, 3])  # equal value, distinct object
        assert replacement.derived("k", None, lambda: "fresh") == "fresh"
        # The same holds for the columns a memo depends on.
        other = Column.ints([4])
        col.derived("k2", None, lambda: "with other", also=(other,))
        equal_other = Column.ints([4])
        assert (
            col.derived("k2", None, lambda: "fresh", also=(equal_other,))
            == "fresh"
        )

    def test_entry_dies_with_anchor(self):
        col = Column.ints([1])
        value = _Value()
        ref = weakref.ref(value)
        col.derived("k", None, lambda: value)
        del value
        gc.collect()
        assert ref() is not None  # held by the live column's memo
        del col
        gc.collect()
        assert ref() is None

    def test_appended_table_drops_table_and_column_entries(self):
        table = Table.from_dict("t", {"a": [1, 2]})
        col = table.column("a")
        col.derived("group_ids", None, lambda: "ids")
        grown = table.concat(Table.from_dict("t", {"a": [3]}))
        assert memo_entries(grown.column("a")) == {}
        assert (
            grown.column("a").derived("group_ids", None, lambda: "new ids")
            == "new ids"
        )
        # The old snapshot keeps its own memo while a reader holds it.
        assert col.derived("group_ids", None, lambda: "stale") == "ids"

    def test_clear_makes_every_memo_recompute(self):
        col = Column.ints([1, 2])
        col.derived("k", None, lambda: "old")
        get_cache().clear()
        assert col.derived("k", None, lambda: "new") == "new"
        assert col.derived("k", None, lambda: "newer") == "new"


class TestAppendInvalidation:
    QUERY = Query(
        "sales",
        (COUNT, AggregateSpec(AggFunc.SUM, "amount", alias="s")),
        ("region", "channel"),
        where=InSet("channel", ["web", "store"]),
    )

    def test_warm_run_hits_group_and_join_caches(self):
        db = star_db()
        cache = get_cache()
        cache.clear()
        cold = execute(db, self.QUERY)
        # The gathered dimension column is cached above the positions, so
        # a warm star join hits "joined_column" without touching
        # "join_positions" again.
        hits_before = {
            kind: cache.metrics.hits.get(kind, 0)
            for kind in ("column_codes", "joined_column", "predicate_mask")
        }
        warm = execute(db, self.QUERY)
        assert warm.rows == cold.rows
        assert warm.raw_counts == cold.raw_counts
        for kind, before in hits_before.items():
            assert cache.metrics.hits.get(kind, 0) > before, kind

    def test_append_rows_refreshes_caches_and_answers(self):
        db = star_db()
        cache = get_cache()
        cache.clear()
        before_append = execute(db, self.QUERY)
        assert memo_entries(db.table("sales").column("channel"))

        batch = Table.from_dict(
            "sales",
            {
                "cust_id": [0, 1, 2],
                "amount": [100.0, 200.0, 300.0],
                "channel": ["web", "web", "store"],
            },
        )
        db.append_rows("sales", batch)
        grown = db.table("sales")
        assert all(
            memo_entries(grown.column(name)) == {}
            for name in grown.column_names
        )

        warm = execute(db, self.QUERY)
        assert warm.rows != before_append.rows  # new rows are visible
        cache.clear()
        cold = execute(db, self.QUERY)
        assert warm.rows == cold.rows
        assert warm.raw_counts == cold.raw_counts


def held_bytes(columns) -> int:
    """Bytes of every distinct ndarray reachable from the memoised values."""
    arrays: dict[int, int] = {}

    def walk(value) -> None:
        if isinstance(value, np.ndarray):
            arrays[id(value)] = value.nbytes
        elif isinstance(value, (tuple, list)):
            for item in value:
                walk(item)
        elif isinstance(value, dict):
            walk(list(value.values()))
        elif isinstance(value, Column):
            walk(value.data)
        elif hasattr(value, "__dict__"):
            walk(vars(value))

    for column in columns:
        for _, value in list(memo_entries(column).values()):
            walk(value)
    return sum(arrays.values())


class TestCacheGrowth:
    def test_distinct_group_by_queries_hold_under_1mb_each(self):
        """Grouping state is per column, not per column *combination*.

        Caching dense group ids for every GROUP BY list held 8 bytes per
        row per distinct query (1.6 MB each here); the filter-first kernel
        caches only per-column codes, shared by every combination.
        """
        names = [f"g{j}" for j in range(7)]
        table = generate_flat_table(
            "flat",
            200_000,
            seed=11,
            categoricals=[
                CategoricalSpec(name, 6 + 3 * j, 1.2)
                for j, name in enumerate(names)
            ],
            measures=[MeasureSpec("amount", distribution="lognormal")],
        )
        db = Database([table])
        pairs = [
            (a, b) for i, a in enumerate(names) for b in names[i + 1 :]
        ][:20]
        queries = [
            Query(
                "flat",
                (COUNT,),
                (a, b),
                where=InSet(b, [table.column(b)[k], table.column(b)[k + 1]]),
            )
            for k, (a, b) in enumerate(pairs)
        ]
        assert len({(q.group_by, q.where) for q in queries}) == 20
        cache = get_cache()
        cache.clear()
        for query in queries:
            assert execute(db, query).n_groups > 0
        columns = [table.column(name) for name in table.column_names]
        assert held_bytes(columns) / len(queries) < 1_000_000
        cache.clear()


class TestInvalidationSweep:
    """Every path that replaces a table publishes columns with empty
    memos and lets the replaced objects' memos die with them."""

    def test_drop_table_releases_cached_artifacts(self):
        db = star_db()
        region = db.table("customers").column("region")
        value = _Value()
        ref = weakref.ref(value)
        region.derived("group_ids", None, lambda: value)
        del value
        db.drop_table("customers")
        assert ref() is not None  # still reachable through ``region``
        del region
        gc.collect()
        assert ref() is None

    def test_insert_rows_invalidates_replaced_small_group_tables(self):
        db = Database([generate_flat_table("flat", 3000, seed=7, **SPEC)])
        sg = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.05, use_reservoir=False, seed=7)
        )
        sg.preprocess(db)
        get_cache().clear()
        # Warm memos on the small-group tables' columns, the way a
        # grouped query would.
        anchored = []
        for info in sg.sample_tables():
            col = info.table.column("color")
            col.derived("group_ids", None, lambda: "ids")
            anchored.append(info.table)
        sg.insert_rows(generate_flat_table("flat", 800, seed=8, **SPEC))
        catalog = set(sg.sample_catalog().table_names)
        replaced = 0
        for table in anchored:
            replacement = None
            for info in sg.sample_tables():
                if info.table.name == table.name:
                    replacement = info.table
            assert replacement is not None and table.name in catalog
            if replacement is not table:
                # The table was replaced by concat: its new columns
                # must start empty, never serve the old entry.
                col = replacement.column("color")
                assert col.derived("group_ids", None, lambda: "new") == "new"
                replaced += 1
        assert replaced > 0

    def test_insert_rows_refreshes_filtered_answers(self):
        db = Database([generate_flat_table("flat", 3000, seed=7, **SPEC)])
        sg = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.05, use_reservoir=False, seed=7)
        )
        session = AQPSession(db)
        session.install(sg)
        sql = (
            "SELECT color, COUNT(*) AS cnt FROM flat "
            "WHERE status = 'status_0' GROUP BY color"
        )
        session.sql(sql)  # warm the sample tables' predicate masks
        sg.insert_rows(generate_flat_table("flat", 800, seed=8, **SPEC))

        warm = session.sql(sql).approx
        get_cache().clear()
        cold = session.sql(sql).approx
        assert answer_values(warm) == answer_values(cold)
        assert warm.rows_scanned == cold.rows_scanned


class TestSessionMemos:
    def build(self):
        db = Database([generate_flat_table("flat", 3000, seed=7, **SPEC)])
        sg = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.05, use_reservoir=False, seed=7)
        )
        session = AQPSession(db)
        session.install(sg)
        return db, sg, session

    def test_repeated_sql_hits_parse_and_plan_memos(self):
        _, _, session = self.build()
        metrics = get_cache().metrics
        sql = "SELECT color, COUNT(*) AS cnt FROM flat GROUP BY color"
        first = session.sql(sql).approx
        parse_hits = metrics.hits.get("sql_parse", 0)
        plan_hits = metrics.hits.get("plan", 0)
        second = session.sql(sql).approx
        assert metrics.hits.get("sql_parse", 0) > parse_hits
        assert metrics.hits.get("plan", 0) > plan_hits
        assert answer_values(second) == answer_values(first)

    def test_insert_rows_bumps_plan_version_and_refreshes(self):
        _, sg, session = self.build()
        sql = "SELECT color, COUNT(*) AS cnt FROM flat GROUP BY color"
        session.sql(sql)
        version = sg.plan_version
        sg.insert_rows(generate_flat_table("flat", 800, seed=8, **SPEC))
        assert sg.plan_version > version

        warm = session.sql(sql).approx
        get_cache().clear()
        cold = sg.answer(parse_query(sql))
        assert answer_values(warm) == answer_values(cold)

    def test_preprocess_bumps_plan_version(self):
        _, sg, _ = self.build()
        version = sg.plan_version
        assert version >= 1  # install() ran preprocess once
        db = Database([generate_flat_table("flat", 1000, seed=9, **SPEC)])
        sg.preprocess(db)
        assert sg.plan_version > version


# ----------------------------------------------------------------------
# Single-flight stampede control
# ----------------------------------------------------------------------
class TestSingleFlight:
    def test_concurrent_misses_coalesce_to_one_computation(self):
        import threading

        from repro.engine.cache import SingleFlight

        flight = SingleFlight()
        entered = threading.Event()
        release = threading.Event()
        computations = []

        def compute():
            computations.append(1)
            entered.set()
            release.wait(5)
            return "value"

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(flight.do("k", compute))
            )
            for _ in range(6)
        ]
        threads[0].start()
        assert entered.wait(5)
        for t in threads[1:]:
            t.start()
        release.set()
        for t in threads:
            t.join()
        assert len(computations) == 1  # everyone shared one execution
        assert {value for value, _ in results} == {"value"}
        leaders = [leader for _, leader in results]
        assert leaders.count(True) == 1 and leaders.count(False) == 5
        assert flight.inflight_count() == 0  # nothing left registered

    def test_leader_failure_lets_a_follower_retry(self):
        import threading

        from repro.engine.cache import SingleFlight

        flight = SingleFlight()
        entered = threading.Event()
        release = threading.Event()
        attempts = []

        def compute():
            attempts.append(1)
            if len(attempts) == 1:
                entered.set()
                release.wait(5)
                raise ValueError("leader died")
            return "recovered"

        outcomes = []

        def run():
            try:
                outcomes.append(flight.do("k", compute))
            except ValueError:
                outcomes.append("failed")

        leader = threading.Thread(target=run)
        follower = threading.Thread(target=run)
        leader.start()
        assert entered.wait(5)
        follower.start()
        release.set()
        leader.join()
        follower.join()
        # The leader's error propagated to the leader only; the waiting
        # follower took over leadership and computed fresh.
        assert "failed" in outcomes
        assert ("recovered", True) in outcomes
        assert len(attempts) == 2

    def test_distinct_keys_do_not_serialise(self):
        from repro.engine.cache import SingleFlight

        flight = SingleFlight()
        assert flight.do("a", lambda: 1) == (1, True)
        assert flight.do("b", lambda: 2) == (2, True)

    def test_session_parse_and_plan_coalesce(self):
        import threading

        db = Database([generate_flat_table("flat", 2000, seed=7, **SPEC)])
        session = AQPSession(db)
        session.install(
            SmallGroupSampling(
                SmallGroupConfig(base_rate=0.1, use_reservoir=False, seed=7)
            )
        )
        metrics = get_cache().metrics
        metrics.reset()
        sql = "SELECT color, COUNT(*) AS cnt FROM flat GROUP BY color"
        barrier = threading.Barrier(4)
        answers = []

        def run():
            barrier.wait()
            answers.append(answer_values(session.sql(sql).approx))

        threads = [threading.Thread(target=run) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # One cold parse and one cold plan total; every concurrent
        # duplicate either coalesced onto the in-flight computation or
        # landed after it as a memo hit — never a second miss.
        assert metrics.misses.get("sql_parse", 0) == 1
        assert metrics.misses.get("plan", 0) == 1
        assert all(a == answers[0] for a in answers[1:])
        session.close()


# ----------------------------------------------------------------------
# Memo thread safety, copies and lifetime
# ----------------------------------------------------------------------
class TestMemoThreadSafety:
    N_THREADS = 8
    OPS_PER_THREAD = 400

    def test_concurrent_hammering_loses_no_updates(self):
        columns = [Column.ints(np.arange(i, i + 50)) for i in range(16)]
        others = [Column.ints(np.arange(5)) for _ in range(2)]

        def compute(column, key):
            return int(column.data.sum()) * 7 + key

        metrics = get_cache().metrics
        kinds = [f"hammer{i}" for i in range(3)]
        before = sum(
            metrics.hits.get(k, 0) + metrics.misses.get(k, 0) for k in kinds
        )
        errors: list[BaseException] = []
        wrong: list[tuple] = []
        lookups = [0] * self.N_THREADS
        barrier = threading.Barrier(self.N_THREADS)

        def worker(thread_index: int) -> None:
            try:
                barrier.wait()
                for op in range(self.OPS_PER_THREAD):
                    column = columns[(thread_index + op) % len(columns)]
                    key = op % 5
                    value = column.derived(
                        kinds[op % 3],
                        key,
                        lambda: compute(column, key),
                        also=(others[op % 2],),
                    )
                    lookups[thread_index] += 1
                    if value != compute(column, key):
                        wrong.append((thread_index, op, value))
                    if op % 97 == 96:
                        get_cache().clear()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        assert wrong == []
        after = sum(
            metrics.hits.get(k, 0) + metrics.misses.get(k, 0) for k in kinds
        )
        # No lost counter updates: every lookup is either a hit or a miss.
        assert after - before == sum(lookups)
        assert sum(lookups) == self.N_THREADS * self.OPS_PER_THREAD

    def test_concurrent_derived_stampede_is_benign(self):
        column = Column.ints([1, 2, 3])
        computed = []
        barrier = threading.Barrier(self.N_THREADS)
        results = [None] * self.N_THREADS

        def worker(thread_index: int) -> None:
            barrier.wait()
            results[thread_index] = column.derived(
                "stampede", None, lambda: computed.append(1) or 42
            )

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # Every caller sees the value; concurrent misses may each compute
        # (last store wins) but at least once and never corrupt.
        assert results == [42] * self.N_THREADS
        assert 1 <= len(computed) <= self.N_THREADS
        assert column.derived("stampede", None, lambda: 0) == 42


class TestMemoCopies:
    def test_copies_start_with_an_empty_memo(self):
        col = Column.strings(["b", "a", "b", "c"])
        col.derived("k", None, lambda: "value")
        foreign = Column.strings(["c", "d"])
        foreign.derived("k", None, lambda: "foreign value")
        copies = {
            "take": col.take(np.array([0, 2])),
            "mask": col.mask(np.array([True, False, True, True])),
            "concat": col.concat(foreign),
            "encoded_like": foreign.encoded_like(col),
            "pickle": pickle.loads(pickle.dumps(col)),
            "deepcopy": copy.deepcopy(col),
        }
        for how, copied in copies.items():
            assert copied is not col and copied is not foreign, how
            assert memo_entries(copied) == {}, how
            assert copied.derived("k", None, lambda: "fresh") == "fresh", how
        assert col.derived("k", None, lambda: "stale") == "value"


class TestMemoLifetime:
    def test_replaced_columns_die_after_append_and_insert_rows(self):
        db = star_db()
        execute(db, TestAppendInvalidation.QUERY)  # fill the memos
        old_channel = weakref.ref(db.table("sales").column("channel"))
        db.append_rows(
            "sales",
            Table.from_dict(
                "sales",
                {"cust_id": [0], "amount": [1.0], "channel": ["web"]},
            ),
        )
        execute(db, TestAppendInvalidation.QUERY)
        gc.collect()
        assert old_channel() is None

        flat = Database([generate_flat_table("flat", 3000, seed=7, **SPEC)])
        sg = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.05, use_reservoir=False, seed=7)
        )
        sg.preprocess(flat)
        query = parse_query(
            "SELECT color, COUNT(*) AS cnt FROM flat "
            "WHERE status = 'status_0' GROUP BY color"
        )
        sg.answer(query)  # fill the sample tables' memos
        before = {
            info.table.name: info.table for info in sg.sample_tables()
        }
        refs = {
            name: weakref.ref(table.column("color"))
            for name, table in before.items()
        }
        sg.insert_rows(generate_flat_table("flat", 800, seed=8, **SPEC))
        sg.answer(query)
        replaced = [
            info.table.name
            for info in sg.sample_tables()
            if info.table is not before[info.table.name]
        ]
        assert replaced
        del before
        gc.collect()
        for name in replaced:
            assert refs[name]() is None, name
