"""Execution cache behaviour: hits, identity invalidation, append refresh.

The cache contract under test: a cached artifact is served only while its
anchor objects are the *same live objects* it was computed from, the
append paths invalidate explicitly, and answers with a warm
cache are identical to answers with a cold cache.
"""

import gc

import numpy as np

from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.datagen.synthetic import (
    CategoricalSpec,
    MeasureSpec,
    generate_flat_table,
)
from repro.engine.cache import MISS, ExecutionCache, get_cache
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
        cache = ExecutionCache()
        col = Column.ints([1, 2, 3])
        cache.put("k", (col,), "value")
        assert cache.get("k", (col,)) == "value"
        replacement = Column.ints([1, 2, 3])  # equal value, distinct object
        assert cache.get("k", (replacement,)) is MISS

    def test_entry_dies_with_anchor(self):
        cache = ExecutionCache()
        col = Column.ints([1])
        cache.put("k", (col,), 123)
        assert len(cache) == 1
        del col
        gc.collect()
        assert len(cache) == 0

    def test_invalidate_table_drops_table_and_column_entries(self):
        cache = ExecutionCache()
        table = Table.from_dict("t", {"a": [1, 2]})
        col = table.column("a")
        cache.put("group_ids", (col,), "ids")
        cache.put("other", (table,), "x")
        assert cache.invalidate_table(table) == 2
        assert cache.get("group_ids", (col,)) is MISS
        assert cache.get("other", (table,)) is MISS


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
        assert len(cache) > 0
        invalidations_before = cache.metrics.invalidations

        batch = Table.from_dict(
            "sales",
            {
                "cust_id": [0, 1, 2],
                "amount": [100.0, 200.0, 300.0],
                "channel": ["web", "web", "store"],
            },
        )
        db.append_rows("sales", batch)
        assert cache.metrics.invalidations > invalidations_before

        warm = execute(db, self.QUERY)
        assert warm.rows != before_append.rows  # new rows are visible
        cache.clear()
        cold = execute(db, self.QUERY)
        assert warm.rows == cold.rows
        assert warm.raw_counts == cold.raw_counts


def held_bytes(cache: ExecutionCache) -> int:
    """Bytes of every distinct ndarray reachable from the cached values."""
    arrays: dict[int, int] = {}

    def walk(value) -> None:
        if isinstance(value, np.ndarray):
            arrays[id(value)] = value.nbytes
        elif isinstance(value, (tuple, list)):
            for item in value:
                walk(item)
        elif isinstance(value, dict):
            walk(list(value.values()))
        elif hasattr(value, "__dict__"):
            walk(vars(value))

    for _, _, value in list(cache._entries.values()):
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
        assert held_bytes(cache) / len(queries) < 1_000_000
        cache.clear()


class TestInvalidationSweep:
    """RL001 bug-sweep regressions: every path that replaces a table
    releases the cached artifacts anchored on the replaced objects."""

    def test_drop_table_releases_cached_artifacts(self):
        db = star_db()
        cache = get_cache()
        cache.clear()
        dim = db.table("customers")
        region = dim.column("region")
        cache.put("group_ids", (region,), "ids")
        cache.put("other", (dim,), "x")
        invalidations_before = cache.metrics.invalidations
        db.drop_table("customers")
        assert cache.metrics.invalidations >= invalidations_before + 2
        assert cache.get("group_ids", (region,)) is MISS
        assert cache.get("other", (dim,)) is MISS

    def test_insert_rows_invalidates_replaced_small_group_tables(self):
        db = Database([generate_flat_table("flat", 3000, seed=7, **SPEC)])
        sg = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.05, use_reservoir=False, seed=7)
        )
        sg.preprocess(db)
        cache = get_cache()
        cache.clear()
        # Warm entries anchored on the small-group tables' columns, the
        # way a grouped query would.
        anchored = []
        for info in sg.sample_tables():
            col = info.table.column("color")
            cache.put("group_ids", (col,), "ids")
            anchored.append((info.table, col))
        sg.insert_rows(generate_flat_table("flat", 800, seed=8, **SPEC))
        catalog = set(sg.sample_catalog().table_names)
        for table, col in anchored:
            replacement = None
            for info in sg.sample_tables():
                if info.table.name == table.name:
                    replacement = info.table
            assert replacement is not None and table.name in catalog
            if replacement is not table:
                # The table was replaced by concat: its old columns'
                # entries must be gone, not served stale.
                assert cache.get("group_ids", (col,)) is MISS

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

    def test_cache_get_or_compute_records_coalesced(self):
        import threading

        cache = ExecutionCache()
        anchor = Table.from_dict("t", {"x": [1, 2, 3]})
        entered = threading.Event()
        release = threading.Event()
        calls = []

        def compute():
            calls.append(1)
            entered.set()
            release.wait(5)
            return [1, 2, 3]

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(
                    cache.get_or_compute("slow", (anchor,), compute)
                )
            )
            for _ in range(4)
        ]
        threads[0].start()
        assert entered.wait(5)
        for t in threads[1:]:
            t.start()
        release.set()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert all(r == [1, 2, 3] for r in results)
        # Every lookup that found nothing counts as a miss; the three
        # that then shared the leader's computation also count as
        # coalesced, so computations == misses - coalesced == 1.
        assert cache.metrics.misses.get("slow", 0) == 4
        assert cache.metrics.coalesced.get("slow", 0) == 3
        snapshot = cache.metrics.snapshot()
        assert snapshot["coalesced"]["slow"] == 3
        assert snapshot["by_kind"]["slow"]["coalesced"] == 3

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
