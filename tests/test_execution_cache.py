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

from repro.core.combiner import execute_pieces
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
from repro.middleware.session import SESSION_MEMO_CAP
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
    return {} if memo is None else memo


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

    def test_hit_requires_the_same_number_of_dependencies(self):
        # A memo filled with fewer dependencies than a later lookup
        # passes must not be served because the shared prefix matches.
        col = Column.ints([1, 2, 3])
        first, second = Column.ints([4]), Column.ints([5])
        col.derived("k", None, lambda: "one input", also=(first,))
        assert (
            col.derived("k", None, lambda: "two", also=(first, second))
            == "two"
        )
        assert col.derived("k", None, lambda: "one", also=(first,)) == "one"

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
        # A warm star join reuses the join work: the memoised positions
        # (no dimension attribute is gathered to fact length to be kept).
        hits_before = {
            kind: cache.metrics.hits.get(kind, 0)
            for kind in ("column_codes", "join_positions", "predicate_mask")
        }
        warm = execute(db, self.QUERY)
        assert warm.rows == cold.rows
        assert warm.keys == cold.keys
        assert warm.raw_counts.tolist() == cold.raw_counts.tolist()
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
        assert warm.keys == cold.keys
        assert warm.raw_counts.tolist() == cold.raw_counts.tolist()


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
        session.append_rows(
            "flat", generate_flat_table("flat", 800, seed=8, **SPEC)
        )

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

    def test_repeated_sql_hits_parse_memo(self):
        _, _, session = self.build()
        metrics = get_cache().metrics
        sql = "SELECT color, COUNT(*) AS cnt FROM flat GROUP BY color"
        first = session.sql(sql).approx
        parse_hits = metrics.hits.get("sql_parse", 0)
        second = session.sql(sql).approx
        assert metrics.hits.get("sql_parse", 0) > parse_hits
        assert answer_values(second) == answer_values(first)

    def test_parse_memo_and_log_stay_under_the_cap(self):
        db, sg, session = self.build()
        metrics = get_cache().metrics
        texts = [
            "SELECT status, COUNT(*) AS cnt FROM flat "
            f"WHERE amount > {i / 100} GROUP BY status"
            for i in range(SESSION_MEMO_CAP + 40)
        ]
        for i, text in enumerate(texts):
            mode = ("approx", "exact")[i % 2]
            result = session.sql(text, mode=mode)
            fresh = AQPSession(db, sg).sql(text, mode=mode)
            if mode == "approx":
                assert answer_values(result.approx) == (
                    answer_values(fresh.approx)
                )
            else:
                assert result.exact.rows == fresh.exact.rows
            assert len(session._parse_memo) <= SESSION_MEMO_CAP

        hits = metrics.hits.get("sql_parse", 0)
        session.sql(texts[-1])
        assert metrics.hits.get("sql_parse", 0) == hits + 1

    def test_concurrent_distinct_texts_stay_under_the_cap(self, monkeypatch):
        import sys

        from repro.middleware import session as session_module

        cap = 64  # the serial test above runs the real cap
        monkeypatch.setattr(session_module, "SESSION_MEMO_CAP", cap)
        _, _, session = self.build()
        n_threads = 8
        texts = [
            "SELECT color, COUNT(*) AS cnt FROM flat "
            f"WHERE amount > {i / 100} GROUP BY color"
            for i in range(4 * cap)
        ]
        errors: list[BaseException] = []
        sizes: list[int] = []

        def ask(offset):
            try:
                for text in texts[offset::n_threads]:
                    session.sql(text)
                    sizes.append(len(session._parse_memo))
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            askers = [
                threading.Thread(target=ask, args=(i,))
                for i in range(n_threads)
            ]
            for thread in askers:
                thread.start()
            for thread in askers:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in askers)
        assert errors == []
        # A miss checks the size, then stores: each racing thread can
        # add one entry past the check.
        assert max(sizes) < cap + n_threads

    def test_insert_rows_replaces_samples_and_refreshes(self):
        _, sg, session = self.build()
        sql = "SELECT color, COUNT(*) AS cnt FROM flat GROUP BY color"
        session.sql(sql)
        samples = session.snapshot.samples
        session.append_rows(
            "flat", generate_flat_table("flat", 800, seed=8, **SPEC)
        )
        assert session.snapshot.samples is not samples

        warm = session.sql(sql).approx
        get_cache().clear()
        cold = execute_pieces(
            sg.plan(session.snapshot.samples, parse_query(sql)),
            technique=sg.name,
        )
        assert answer_values(warm) == answer_values(cold)

    def test_preprocess_replaces_samples(self):
        _, sg, _ = self.build()
        samples = sg.samples
        assert samples is not None  # install() ran preprocess once
        db = Database([generate_flat_table("flat", 1000, seed=9, **SPEC)])
        sg.preprocess(db)
        assert sg.samples is not samples


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
