"""Tests for ORDER BY / LIMIT — approximate top-k queries.

The paper's introduction motivates AQP with exactly this workload:
"knowing the marginal data distributions ... will often be enough to
identify top-selling products".
"""

import pytest

from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.engine.executor import aggregate_table, execute
from repro.engine.expressions import AggFunc, AggregateSpec, Query
from repro.errors import QueryError
from repro.sql import format_query, parse, parse_query

COUNT = AggregateSpec(AggFunc.COUNT, alias="cnt")


class TestQueryValidation:
    def test_order_by_unknown_name(self):
        with pytest.raises(QueryError, match="ORDER BY"):
            Query("t", (COUNT,), ("a",), order_by=(("nope", True),))

    def test_order_by_aggregate_alias_ok(self):
        query = Query("t", (COUNT,), ("a",), order_by=(("cnt", True),))
        assert query.order_by == (("cnt", True),)

    def test_limit_positive(self):
        with pytest.raises(QueryError):
            Query("t", (COUNT,), ("a",), limit=0)

    def test_with_table_preserves_order(self):
        query = Query(
            "t", (COUNT,), ("a",), order_by=(("cnt", True),), limit=3
        )
        assert query.with_table("s").order_by == query.order_by
        assert query.with_table("s").limit == 3


class TestSQL:
    def test_parse_order_and_limit(self):
        query = parse_query(
            "SELECT a, COUNT(*) AS cnt FROM t GROUP BY a "
            "ORDER BY cnt DESC, a LIMIT 5"
        )
        assert query.order_by == (("cnt", True), ("a", False))
        assert query.limit == 5

    def test_asc_keyword(self):
        query = parse_query(
            "SELECT a, COUNT(*) AS cnt FROM t GROUP BY a ORDER BY a ASC"
        )
        assert query.order_by == (("a", False),)

    def test_roundtrip(self):
        sql = (
            "SELECT a, COUNT(*) AS cnt FROM t GROUP BY a "
            "ORDER BY cnt DESC LIMIT 3"
        )
        query = parse_query(sql)
        assert parse(format_query(query)).selects[0].query == query


class TestExactExecution:
    def test_order_by_aggregate_desc(self, small_table):
        query = Query(
            "t", (COUNT,), ("a",), order_by=(("cnt", True),)
        )
        result = aggregate_table(small_table, query)
        counts = [v[0] for v in result.rows.values()]
        assert counts == sorted(counts, reverse=True)

    def test_order_by_group_column(self, small_table):
        query = Query("t", (COUNT,), ("a",), order_by=(("a", False),))
        result = aggregate_table(small_table, query)
        keys = [g[0] for g in result.rows]
        assert keys == sorted(keys)

    def test_limit_trims(self, small_table):
        query = Query(
            "t", (COUNT,), ("a",), order_by=(("cnt", True),), limit=2
        )
        result = aggregate_table(small_table, query)
        assert result.n_groups == 2
        # x and y both have 3 rows; z (2 rows) must be dropped.
        assert ("z",) not in result.rows

    def test_limit_trims_variance_stats(self, small_table):
        query = Query(
            "t", (COUNT,), ("a",), order_by=(("cnt", True),), limit=1
        )
        result = aggregate_table(
            small_table, query, collect_variance_stats=True
        )
        assert len(result.sum_squares["cnt"]) == result.n_groups == 1
        assert len(result.raw_counts) == result.n_groups

    def test_secondary_sort_breaks_ties(self, small_table):
        query = Query(
            "t",
            (COUNT,),
            ("a",),
            order_by=(("cnt", True), ("a", False)),
        )
        result = aggregate_table(small_table, query)
        assert list(result.rows) == [("x",), ("y",), ("z",)]


class TestApproximateTopK:
    @pytest.fixture(scope="class")
    def technique(self, flat_db):
        sg = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.2, use_reservoir=False, seed=1)
        )
        sg.preprocess(flat_db)
        return sg

    def test_top_k_groups_match_exact_under_high_rate(
        self, technique, flat_db
    ):
        query = parse_query(
            "SELECT color, COUNT(*) AS cnt FROM flat GROUP BY color "
            "ORDER BY cnt DESC LIMIT 3"
        )
        exact = execute(flat_db, query)
        answer = technique.answer(query)
        assert answer.n_groups == 3
        # At a 20% rate on a skewed column the top 3 are unambiguous.
        assert set(answer.groups) == set(exact.rows)

    def test_pieces_not_limited(self, technique):
        """LIMIT applies after combination, never inside the rewrite."""
        query = parse_query(
            "SELECT color, COUNT(*) AS cnt FROM flat GROUP BY color "
            "ORDER BY cnt DESC LIMIT 2"
        )
        for piece in technique.choose_samples(query):
            assert piece.query.limit is None or piece.query.limit >= 2
        answer = technique.answer(query)
        assert answer.n_groups == 2
        assert "LIMIT" not in (answer.rewritten_sql or "")

    def test_top_k_confidence_flag(self, technique):
        query = parse_query(
            "SELECT color, COUNT(*) AS cnt FROM flat GROUP BY color "
            "ORDER BY cnt DESC LIMIT 1"
        )
        answer = technique.answer(query)
        # color_000 dominates a z=1.6 Zipf column: the cut is separated.
        assert answer.top_k_confident is True

    def test_no_flag_without_limit(self, technique):
        query = parse_query(
            "SELECT color, COUNT(*) AS cnt FROM flat GROUP BY color "
            "ORDER BY cnt DESC"
        )
        answer = technique.answer(query)
        assert answer.top_k_confident is None
        counts = [ests[0].value for ests in answer.groups.values()]
        assert counts == sorted(counts, reverse=True)
