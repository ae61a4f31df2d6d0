"""Unit tests for the query executor against a pure-Python reference."""

import numpy as np
import pytest

from repro.engine.database import Database
from repro.engine.executor import aggregate_table, dense_ids, execute
from repro.engine.expressions import (
    AggFunc,
    AggregateSpec,
    Equals,
    InSet,
    Query,
)
from repro.engine.schema import ForeignKey, StarSchema
from repro.engine.table import Table
from repro.errors import QueryError


def reference_aggregate(table, query, weights=None, scale=1.0):
    """Row-at-a-time reference implementation."""
    rows = table.to_rows()
    names = table.column_names
    idx = {c: i for i, c in enumerate(names)}
    if weights is None:
        weights = [1.0] * len(rows)
    keep = (
        query.where.evaluate(table)
        if query.where is not None
        else np.ones(len(rows), dtype=bool)
    )
    groups = {}
    for row, w, k in zip(rows, weights, keep):
        if not k:
            continue
        key = tuple(row[idx[c]] for c in query.group_by)
        groups.setdefault(key, []).append((row, w))
    out = {}
    for key, members in groups.items():
        values = []
        for agg in query.aggregates:
            if agg.func is AggFunc.COUNT:
                values.append(scale * sum(w for _, w in members))
            elif agg.func is AggFunc.SUM:
                values.append(
                    scale * sum(w * r[idx[agg.column]] for r, w in members)
                )
            elif agg.func is AggFunc.AVG:
                total_w = sum(w for _, w in members)
                values.append(
                    sum(w * r[idx[agg.column]] for r, w in members) / total_w
                )
            elif agg.func is AggFunc.MIN:
                values.append(min(r[idx[agg.column]] for r, _ in members))
            elif agg.func is AggFunc.MAX:
                values.append(max(r[idx[agg.column]] for r, _ in members))
        out[key] = tuple(values)
    return out


def assert_matches_reference(table, query, weights=None, scale=1.0):
    result = aggregate_table(table, query, weights=weights, scale=scale)
    expected = reference_aggregate(table, query, weights=weights, scale=scale)
    assert set(result.rows) == set(expected)
    for key, values in expected.items():
        assert result.rows[key] == pytest.approx(values)


COUNT = AggregateSpec(AggFunc.COUNT, alias="cnt")


class TestAggregation:
    def test_count_by_one_column(self, small_table):
        assert_matches_reference(small_table, Query("t", (COUNT,), ("a",)))

    def test_count_by_two_columns(self, small_table):
        assert_matches_reference(small_table, Query("t", (COUNT,), ("a", "b")))

    def test_sum_and_count(self, small_table):
        q = Query("t", (COUNT, AggregateSpec(AggFunc.SUM, "v")), ("a",))
        assert_matches_reference(small_table, q)

    def test_avg_min_max(self, small_table):
        q = Query(
            "t",
            (
                AggregateSpec(AggFunc.AVG, "v"),
                AggregateSpec(AggFunc.MIN, "v"),
                AggregateSpec(AggFunc.MAX, "v"),
            ),
            ("b",),
        )
        assert_matches_reference(small_table, q)

    def test_no_grouping_single_group(self, small_table):
        result = aggregate_table(small_table, Query("t", (COUNT,)))
        assert result.rows == {(): (8.0,)}

    def test_with_predicate(self, small_table):
        q = Query("t", (COUNT,), ("a",), where=Equals("b", 1))
        assert_matches_reference(small_table, q)

    def test_predicate_eliminating_everything(self, small_table):
        q = Query("t", (COUNT,), ("a",), where=Equals("a", "missing"))
        result = aggregate_table(small_table, q)
        assert result.rows == {}

    def test_weights(self, small_table):
        weights = np.arange(1.0, 9.0)
        q = Query("t", (COUNT, AggregateSpec(AggFunc.SUM, "v")), ("a",))
        assert_matches_reference(small_table, q, weights=weights)

    def test_scale(self, small_table):
        q = Query("t", (COUNT,), ("a",))
        scaled = aggregate_table(small_table, q, scale=100.0)
        plain = aggregate_table(small_table, q)
        for key in plain.rows:
            assert scaled.rows[key][0] == plain.rows[key][0] * 100.0

    def test_weights_length_mismatch(self, small_table):
        with pytest.raises(QueryError):
            aggregate_table(
                small_table, Query("t", (COUNT,)), weights=np.ones(3)
            )

    def test_variance_weights_length_mismatch(self, small_table):
        with pytest.raises(QueryError):
            aggregate_table(
                small_table,
                Query("t", (COUNT,)),
                collect_variance_stats=True,
                variance_weights=np.ones(3),
            )

    def test_group_by_numeric_column(self, small_table):
        assert_matches_reference(small_table, Query("t", (COUNT,), ("b",)))

    def test_raw_counts(self, small_table):
        result = aggregate_table(small_table, Query("t", (COUNT,), ("a",)))
        assert result.keys == [("x",), ("y",), ("z",)]
        assert result.raw_counts.tolist() == [3, 3, 2]


class TestVarianceStats:
    def test_count_sum_squares_default(self, small_table):
        q = Query("t", (COUNT,), ("a",))
        result = aggregate_table(
            small_table, q, scale=10.0, collect_variance_stats=True
        )
        # Default variance weight is scale^2 per row; COUNT x=1.
        x = result.keys.index(("x",))
        assert result.sum_squares["cnt"][x] == pytest.approx(3 * 100.0)

    def test_sum_sum_squares_explicit(self, small_table):
        q = Query("t", (AggregateSpec(AggFunc.SUM, "v", alias="s"),), ("a",))
        vw = np.full(8, 2.0)
        result = aggregate_table(
            small_table, q, collect_variance_stats=True, variance_weights=vw
        )
        v = small_table.column("v").to_list()
        expected_x = 2.0 * (v[0] ** 2 + v[1] ** 2 + v[7] ** 2)
        x = result.keys.index(("x",))
        assert result.sum_squares["s"][x] == pytest.approx(expected_x)


class TestGroupedResult:
    def test_value_and_as_dict(self, small_table):
        result = aggregate_table(small_table, Query("t", (COUNT,), ("a",)))
        assert result.value(("x",), "cnt") == 3.0
        assert result.as_dict()[("z",)] == 2.0
        assert result.total() == 8.0

    def test_unknown_aggregate(self, small_table):
        result = aggregate_table(small_table, Query("t", (COUNT,), ("a",)))
        with pytest.raises(QueryError):
            result.value(("x",), "nope")

    def test_n_groups(self, small_table):
        result = aggregate_table(small_table, Query("t", (COUNT,), ("a", "b")))
        assert result.n_groups == 6

    def test_value_reads_every_group_by_position(self, small_table):
        result = aggregate_table(small_table, Query("t", (COUNT,), ("a", "b")))
        assert result.key_positions == {k: i for i, k in enumerate(result.keys)}
        assert {k: result.value(k, "cnt") for k in result.keys} == result.as_dict()
        with pytest.raises(KeyError):
            result.value(("nope", 0), "cnt")

    def test_take_indexes_its_own_keys(self, small_table):
        result = aggregate_table(small_table, Query("t", (COUNT,), ("a",)))
        assert result.value(("x",), "cnt") == 3.0  # builds the index
        taken = result.take([2, 0])
        assert taken.keys == [("z",), ("x",)]
        assert taken.value(("x",), "cnt") == 3.0
        assert taken.value(("z",), "cnt") == 2.0
        with pytest.raises(KeyError):
            taken.value(("y",), "cnt")


class TestExecute:
    def test_star_query(self):
        fact = Table.from_dict("fact", {"fk": [0, 1, 1], "m": [1.0, 2.0, 3.0]})
        dim = Table.from_dict("dim", {"id": [0, 1], "color": ["r", "g"]})
        db = Database([fact, dim], StarSchema("fact", (ForeignKey("fk", "dim", "id"),)))
        q = Query("fact", (AggregateSpec(AggFunc.SUM, "m", alias="s"),), ("color",))
        result = execute(db, q)
        assert result.rows == {("r",): (1.0,), ("g",): (5.0,)}

    def test_execute_unknown_table(self, flat_db):
        with pytest.raises(QueryError):
            execute(flat_db, Query("nope", (COUNT,)))

    def test_execute_must_target_fact(self, tiny_tpch):
        with pytest.raises(QueryError):
            execute(tiny_tpch, Query("part", (COUNT,)))

    def test_execute_unknown_column(self, flat_db):
        with pytest.raises(QueryError):
            execute(flat_db, Query("flat", (COUNT,), ("nope",)))

    def test_count_star_no_grouping(self, tiny_tpch):
        result = execute(tiny_tpch, Query("lineitem", (COUNT,)))
        assert result.rows[()][0] == tiny_tpch.fact_table.n_rows

    def test_star_predicate_on_dimension(self, tiny_tpch):
        q = Query(
            "lineitem",
            (COUNT,),
            ("l_shipmode",),
            where=InSet("s_region", ["s_region_000"]),
        )
        result = execute(tiny_tpch, q)
        view = tiny_tpch.joined_view()
        expected = aggregate_table(view, q)
        assert result.rows == expected.rows


class TestDenseIds:
    def test_single_array(self):
        ids, n = dense_ids([np.array([5, 3, 5, 9])])
        assert n == 3
        assert ids[0] == ids[2]
        assert len(set(ids.tolist())) == 3

    def test_multiple_arrays_match_tuples(self):
        a = np.array([0, 0, 1, 1, 0])
        b = np.array([7, 8, 7, 7, 7])
        ids, n = dense_ids([a, b])
        tuples = list(zip(a.tolist(), b.tolist()))
        mapping = {}
        for t, i in zip(tuples, ids.tolist()):
            mapping.setdefault(t, i)
            assert mapping[t] == i
        assert n == len(set(tuples))

    def test_empty_input_rejected(self):
        with pytest.raises(QueryError):
            dense_ids([])
