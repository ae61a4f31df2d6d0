"""The engine's derived state and scratch, counted in bytes, not time.

* WHERE masks are memoised packed (one bit per row) and all of them
  together stay within ``PREDICATE_MASK_BUDGET``, least recently used
  evicted first, whatever the number of distinct WHERE clauses — in
  process and as ``/stats`` reports them for a served stream.
* The grouping kernel folds its key in ``int32`` and widens it once
  into ``intp`` ids, so neither it nor the aggregates reading the ids
  hold 8-byte copies per selected row beside them; building star-join
  positions does not hold three 8-byte copies per fact row.

Every number here is a byte count, so these tests are deterministic.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.datagen.synthetic import (
    CategoricalSpec,
    MeasureSpec,
    generate_flat_table,
)
from repro.datagen.tpch import generate_tpch
from repro.engine import cache as cache_module
from repro.engine import executor
from repro.engine.cache import get_cache
from repro.engine.column import Column
from repro.engine.database import Database, _key_positions
from repro.engine.executor import execute
from repro.engine.expressions import AggFunc, AggregateSpec, Between, Query
from repro.engine.table import Table
from repro.middleware import AQPSession
from repro.server import AQPServer, ServerConfig
from repro.server.protocol import encode_result

COUNT = AggregateSpec(AggFunc.COUNT, alias="cnt")
N_ROWS = 100_003  # not a multiple of 8
PACKED = -(-N_ROWS // 8)


def _flat_db() -> Database:
    table = generate_flat_table(
        "flat",
        N_ROWS,
        seed=4,
        categoricals=[CategoricalSpec("color", 12, 1.1)],
        measures=[MeasureSpec("amount", distribution="uniform")],
    )
    return Database([table])


@pytest.fixture()
def flat_db() -> Database:
    return _flat_db()


@pytest.fixture()
def budget(monkeypatch):
    """A budget of ten packed masks of the flat table (plus slack)."""
    get_cache().clear()
    limit = 10 * PACKED + PACKED // 2
    monkeypatch.setattr(cache_module, "PREDICATE_MASK_BUDGET", limit)
    yield limit
    get_cache().clear()


def _where(k: int) -> Between:
    return Between("amount", float(k), float(k) + 40.0)


def _held_masks(db: Database) -> list[np.ndarray]:
    """The mask values memoised on the database's columns."""
    masks = []
    for name in db.table_names:
        table = db.table(name)
        for column in (table.column(c) for c in table.column_names):
            for (kind, _), (_, value) in (column._memo or {}).items():
                if kind == "predicate_mask":
                    masks.append(value)
    return masks


class TestPredicateMaskBudget:
    def test_distinct_where_clauses_stay_within_the_budget(self, flat_db, budget):
        for k in range(60):
            query = Query("flat", (COUNT,), ("color",), where=_where(k))
            assert execute(flat_db, query).n_groups > 0
            held = get_cache().bytes_held()["predicate_mask"]
            assert held <= budget
            masks = _held_masks(flat_db)
            assert sum(mask.nbytes for mask in masks) == held
            for mask in masks:
                assert mask.dtype == np.uint8 and mask.nbytes == PACKED
        assert len(_held_masks(flat_db)) == 10

    def test_least_recently_used_is_evicted_first(self, flat_db, budget):
        metrics = get_cache().metrics

        def ask(k: int) -> bool:
            """Run the k-th query; whether its mask was a memo hit."""
            hits = metrics.hits.get("predicate_mask", 0)
            execute(flat_db, Query("flat", (COUNT,), where=_where(k)))
            return metrics.hits.get("predicate_mask", 0) > hits

        for k in range(10):
            assert not ask(k)
        assert ask(0)  # touched: now the most recently used
        assert not ask(10)  # evicts 1, the least recently used
        assert ask(0)
        assert not ask(1)
        assert ask(10)

    def test_a_mask_larger_than_the_budget_is_not_kept(
        self, flat_db, monkeypatch
    ):
        get_cache().clear()
        monkeypatch.setattr(cache_module, "PREDICATE_MASK_BUDGET", PACKED - 1)
        query = Query("flat", (COUNT,), where=_where(3))
        first = execute(flat_db, query)
        assert _held_masks(flat_db) == []
        assert get_cache().bytes_held()["predicate_mask"] == 0
        assert execute(flat_db, query).rows == first.rows
        get_cache().clear()

    def test_bytes_leave_the_count_when_columns_die_or_clear(self, budget):
        db = _flat_db()
        for k in range(3):
            execute(db, Query("flat", (COUNT,), ("color",), where=_where(k)))
        held = get_cache().bytes_held()
        assert held["predicate_mask"] == 3 * PACKED
        assert held["column_codes"] == 0  # dictionary codes are the column's
        del db
        gc.collect()
        assert get_cache().bytes_held()["predicate_mask"] == 0

        db = _flat_db()
        execute(db, Query("flat", (COUNT,), where=_where(1)))
        assert get_cache().bytes_held()["predicate_mask"] == PACKED
        get_cache().clear()
        assert get_cache().bytes_held() == {}
        assert _held_masks(db) == []


class TestScratchPerRow:
    def test_grouping_kernel_scratch_per_selected_row(self):
        # 25 x 40 x 50 = 50,000 cells, half of 1M rows selected: the
        # counted branch.  8-byte keys and taken codes read ~42-54 bytes
        # per selected row; an int32 key folded as taken, ~21, of which
        # 8 are the returned ids and ~9 the 50,000 decoded group keys.
        rng = np.random.default_rng(0)
        n = 1_000_000
        sources_columns = [
            Column.ints(rng.integers(0, card, n) * 7) for card in (25, 40, 50)
        ]
        selection = np.flatnonzero(rng.random(n) < 0.5)
        sources = [(column, selection) for column in sources_columns]
        executor._group_selected(sources, selection.size)  # fill code memos
        tracemalloc.start()
        try:
            ids, keys, counts = executor._group_selected(sources, selection.size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(keys) == counts.size and counts.sum() == selection.size
        assert ids.dtype == np.intp
        assert peak / selection.size <= 24, peak / selection.size

    @pytest.mark.parametrize(
        ("cards", "gate"),
        [
            # 7 groups: the per-row arrays set the peak.  int32 ids,
            # which every bincount copies to intp, and a product of
            # three arrays for the sums of squares read 46-48 bytes per
            # selected row; ~40 now.
            ((7,), 44),
            # 50,000 groups: ~60 bytes per selected row are the result's
            # per-group dicts; the rest is the same per-row scratch.
            ((25, 40, 50), 116),
        ],
    )
    def test_aggregate_scratch_per_selected_row(self, cards, gate):
        # SUM and AVG with variance stats over half of 1M rows, selected
        # by a WHERE whose packed mask is already memoised.
        rng = np.random.default_rng(2)
        n = 1_000_000
        columns = {
            f"g{j}": Column.ints(rng.integers(0, card, n) * 7)
            for j, card in enumerate(cards)
        }
        columns["u"] = Column.floats(rng.random(n))
        columns["v"] = Column.floats(rng.random(n))
        table = Table("t", columns)
        query = Query(
            "t",
            (
                AggregateSpec(AggFunc.SUM, "v", alias="s"),
                AggregateSpec(AggFunc.AVG, "v", alias="a"),
            ),
            tuple(columns)[: len(cards)],
            where=Between("u", 0.0, 0.5),
        )
        get_cache().clear()
        first = executor.aggregate_table(table, query, collect_variance_stats=True)
        gc.collect()
        tracemalloc.start()
        try:
            result = executor.aggregate_table(
                table, query, collect_variance_stats=True
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            get_cache().clear()
        assert result.rows == first.rows
        n_selected = int(result.raw_counts.sum())
        assert abs(n_selected - n / 2) < n / 100
        assert peak / n_selected <= gate, peak / n_selected

    def test_join_positions_scratch(self):
        # The int64 search result, a clipped copy of it and an int64
        # gather for the equality check held ~20 bytes per fact row;
        # clipping in place and narrowing first leave ~15.
        rng = np.random.default_rng(1)
        dimension_keys = rng.permutation(np.arange(100_000, 300_000))
        fact_keys = rng.choice(dimension_keys, 1_000_000)
        tracemalloc.start()
        try:
            positions = _key_positions(dimension_keys, fact_keys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(dimension_keys[positions], fact_keys)
        assert positions.dtype == np.int32
        assert peak / fact_keys.size <= 17, peak / fact_keys.size


def _tpch() -> Database:
    return generate_tpch(scale=1.0, z=2.0, rows_per_scale=6000, seed=11)


def _exact_queries(n: int) -> list[str]:
    """Distinct exact WHERE queries over fact and dimension columns."""
    texts = []
    for k in range(n):
        low = 1 + k % 40
        if k % 3 == 0:
            where = f"l_quantity BETWEEN {low} AND {low + 10 + k // 40}"
        elif k % 3 == 1:
            where = (
                f"l_quantity >= {low} AND l_discount <= {0.01 * (1 + k % 9):.2f}"
                f" AND l_extendedprice >= {500 * (k % 7)}"
            )
        else:
            where = (
                f"p_size <> 'p_size_{k % 10:03d}' AND l_quantity < {50 - k % 17}"
            )
        texts.append(
            "SELECT l_shipmode, COUNT(*) AS cnt, SUM(l_extendedprice) AS s "
            f"FROM lineitem WHERE {where} GROUP BY l_shipmode"
        )
    assert len(set(texts)) == n
    return texts


class TestServedStream:
    def test_stats_report_mask_bytes_within_the_budget(self, monkeypatch):
        """ROADMAP 8(v): many more distinct exact WHERE clauses than the
        budget holds; ``/stats`` stays within it and every answer equals
        a fresh session's on a separately built database."""
        texts = _exact_queries(90)
        fresh = AQPSession(_tpch())
        expected = [
            encode_result(fresh.sql(text, mode="exact"))["fingerprint"]
            for text in texts
        ]
        fresh.close()

        get_cache().clear()
        served_db = _tpch()
        mask_bytes = -(-served_db.fact_table.n_rows // 8)
        limit = 6 * mask_bytes
        monkeypatch.setattr(cache_module, "PREDICATE_MASK_BUDGET", limit)
        session = AQPSession(served_db)
        app = AQPServer(session, ServerConfig(max_inflight=2))
        try:
            for round_ in range(2):
                for text, fingerprint in zip(texts, expected):
                    status, body = app.handle(
                        {"op": "query", "sql": text, "mode": "exact"}
                    )
                    assert status == 200, body
                    assert body["fingerprint"] == fingerprint, text
                    status, stats = app.handle({"op": "stats"})
                    cache = stats["cache"]
                    assert cache["budget"]["predicate_mask"] == limit
                    held = cache["bytes_held"]["predicate_mask"]
                    assert 0 < held <= limit
            assert cache["bytes_held"]["join_positions"] > 0
        finally:
            session.close()
            get_cache().clear()
