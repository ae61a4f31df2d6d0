"""Tests for HAVING — post-aggregation filters, exact and approximate."""

import pytest

from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.engine.executor import aggregate_table, execute
from repro.engine.expressions import (
    AggFunc,
    AggregateSpec,
    CompareOp,
    Query,
)
from repro.errors import QueryError, SQLSyntaxError
from repro.sql import format_query, parse, parse_query

COUNT = AggregateSpec(AggFunc.COUNT, alias="cnt")


class TestValidation:
    def test_having_must_name_aggregate(self):
        with pytest.raises(QueryError, match="HAVING"):
            Query("t", (COUNT,), ("a",), having=(("a", CompareOp.GT, 1.0),))

    def test_having_needs_compare_op(self):
        with pytest.raises(QueryError):
            Query("t", (COUNT,), ("a",), having=(("cnt", ">", 1.0),))

    def test_with_table_preserves_having(self):
        query = Query(
            "t", (COUNT,), ("a",), having=(("cnt", CompareOp.GT, 1.0),)
        )
        assert query.with_table("s").having == query.having


class TestSQL:
    def test_parse_having(self):
        query = parse_query(
            "SELECT a, COUNT(*) AS cnt FROM t GROUP BY a "
            "HAVING cnt >= 3 AND cnt < 100"
        )
        assert query.having == (
            ("cnt", CompareOp.GE, 3.0),
            ("cnt", CompareOp.LT, 100.0),
        )

    def test_having_requires_number(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT COUNT(*) AS c FROM t HAVING c > 'x'")

    def test_having_requires_operator(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT COUNT(*) AS c FROM t HAVING c IN (1)")

    def test_roundtrip(self):
        sql = (
            "SELECT a, COUNT(*) AS cnt FROM t GROUP BY a "
            "HAVING cnt > 5 ORDER BY cnt DESC LIMIT 2"
        )
        query = parse_query(sql)
        assert parse(format_query(query)).selects[0].query == query

    def test_clause_order_in_formatter(self):
        query = parse_query(
            "SELECT a, COUNT(*) AS cnt FROM t GROUP BY a "
            "HAVING cnt > 5 ORDER BY cnt DESC"
        )
        text = format_query(query)
        assert text.index("HAVING") < text.index("ORDER BY")


class TestExactExecution:
    def test_having_filters_groups(self, small_table):
        query = Query(
            "t", (COUNT,), ("a",), having=(("cnt", CompareOp.GE, 3.0),)
        )
        result = aggregate_table(small_table, query)
        # x and y have 3 rows each; z has 2 and is filtered.
        assert set(result.rows) == {("x",), ("y",)}
        assert result.raw_counts.tolist() == [3, 3]

    def test_having_with_order_and_limit(self, small_table):
        query = Query(
            "t",
            (COUNT,),
            ("a",),
            having=(("cnt", CompareOp.GE, 2.0),),
            order_by=(("cnt", True), ("a", False)),
            limit=2,
        )
        result = aggregate_table(small_table, query)
        assert list(result.rows) == [("x",), ("y",)]

    def test_having_on_sum(self, small_table):
        query = Query(
            "t",
            (AggregateSpec(AggFunc.SUM, "v", alias="total"),),
            ("a",),
            having=(("total", CompareOp.GT, 115.0),),
        )
        result = aggregate_table(small_table, query)
        # sums: x=110, y=120, z=130.
        assert set(result.rows) == {("y",), ("z",)}


class TestApproximateExecution:
    @pytest.fixture(scope="class")
    def technique(self, flat_db):
        sg = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.2, use_reservoir=False, seed=2)
        )
        sg.preprocess(flat_db)
        return sg

    def test_having_applied_after_combination(self, technique):
        query = parse_query(
            "SELECT color, COUNT(*) AS cnt FROM flat GROUP BY color "
            "HAVING cnt >= 200"
        )
        answer = technique.answer(query)
        for estimates in answer.groups.values():
            assert estimates[0].value >= 200
        # The rewritten pieces carry no HAVING (partial sums must not be
        # filtered).
        assert "HAVING" not in (answer.rewritten_sql or "")

    def test_having_matches_exact_on_well_separated_threshold(
        self, technique, flat_db
    ):
        query = parse_query(
            "SELECT status, COUNT(*) AS cnt FROM flat GROUP BY status "
            "HAVING cnt >= 100"
        )
        exact = execute(flat_db, query)
        answer = technique.answer(query)
        # status has 3 well-separated groups; a 20% sample gets the same
        # HAVING survivors.
        assert set(answer.groups) == set(exact.rows)
