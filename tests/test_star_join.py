"""Late-materialised star joins answer exactly like the materialised view.

``execute`` never gathers a dimension attribute to fact length: dimension
predicates run on the dimension table, and grouping codes and aggregated
values are gathered through the join positions for the selected rows
only.  These tests pin that the answers are the view's, bit for bit and
in the same group order, and that no fact-length copy of a dimension
attribute is left in any memo.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.cache import get_cache
from repro.engine.column import Column
from repro.engine.database import Database
from repro.engine.executor import aggregate_table, execute
from repro.engine.expressions import (
    AggFunc,
    AggregateSpec,
    And,
    Between,
    Compare,
    CompareOp,
    Equals,
    InSet,
    Not,
    Or,
    Query,
)
from repro.engine.schema import ForeignKey, StarSchema
from repro.engine.table import Table
from repro.errors import SchemaError

COUNT = AggregateSpec(AggFunc.COUNT, alias="n")
N_FACT = 3000


def _star_db(seed: int = 5) -> Database:
    """A fact table with two dimensions whose keys are shuffled and
    partly unreferenced, so dimension-side codes and value sets differ
    from the fact-side ones."""
    rng = np.random.default_rng(seed)
    cust_keys = rng.permutation(np.arange(1000, 1200))
    prod_keys = rng.permutation(np.arange(50)) * 7
    customers = Table(
        "customers",
        {
            "c_id": Column.ints(cust_keys.tolist()),
            "c_region": Column.from_values(
                [f"region_{i}" for i in rng.integers(0, 6, cust_keys.size)]
            ),
            "c_age": Column.ints(rng.integers(18, 90, cust_keys.size).tolist()),
            "c_score": Column.floats(
                np.round(rng.normal(50, 20, cust_keys.size), 1).tolist()
            ),
        },
    )
    products = Table(
        "products",
        {
            "p_id": Column.ints(prod_keys.tolist()),
            "p_category": Column.from_values(
                [f"cat_{i}" for i in rng.integers(0, 9, prod_keys.size)]
            ),
            "p_weight": Column.floats(
                rng.uniform(0.1, 30, prod_keys.size).tolist()
            ),
        },
    )
    # Only 160 customers and 40 products are referenced at all.
    fact = Table(
        "sales",
        {
            "cust": Column.ints(rng.choice(cust_keys[:160], N_FACT).tolist()),
            "prod": Column.ints(rng.choice(prod_keys[:40], N_FACT).tolist()),
            "channel": Column.from_values(
                [f"ch_{i}" for i in rng.integers(0, 4, N_FACT)]
            ),
            "qty": Column.ints(rng.integers(1, 20, N_FACT).tolist()),
            "amount": Column.floats(rng.lognormal(3, 1, N_FACT).tolist()),
        },
    )
    schema = StarSchema(
        fact_table="sales",
        foreign_keys=(
            ForeignKey("cust", "customers", "c_id"),
            ForeignKey("prod", "products", "p_id"),
        ),
    )
    return Database([fact, customers, products], schema)


STAR = _star_db()
VIEW = STAR.joined_view()


def assert_same_answer(query: Query) -> None:
    """``execute`` equals aggregating the materialised view, cold and warm."""
    expected = aggregate_table(VIEW, query)
    get_cache().clear()
    for _ in range(2):
        got = execute(STAR, query)
        assert list(got.rows.items()) == list(expected.rows.items())
        assert got.keys == expected.keys
        assert got.raw_counts.tolist() == expected.raw_counts.tolist()


LEAVES = [
    InSet("c_region", ["region_1", "region_3"]),
    Equals("p_category", "cat_2"),
    Compare("c_age", CompareOp.GE, 50),
    Between("c_score", 30.0, 60.0),
    Compare("p_weight", CompareOp.LT, 12.5),
    InSet("channel", ["ch_0", "ch_2"]),
    Compare("qty", CompareOp.LE, 9),
    Equals("c_region", "no_such_region"),
]
GROUPINGS = [
    (),
    ("c_region",),
    ("channel", "c_region"),
    ("p_category", "c_age"),
    ("c_score", "channel", "p_category"),
]
MEASURES = [
    AggregateSpec(AggFunc.SUM, "c_score", alias="s"),
    AggregateSpec(AggFunc.AVG, "p_weight", alias="a"),
    AggregateSpec(AggFunc.MIN, "c_age", alias="lo"),
    AggregateSpec(AggFunc.MAX, "c_score", alias="hi"),
    AggregateSpec(AggFunc.SUM, "amount", alias="f"),
]


class TestSameAnswerAsTheView:
    @pytest.mark.parametrize(
        "where",
        [
            None,
            And([LEAVES[0], LEAVES[5]]),
            Or([LEAVES[1], LEAVES[6]]),
            Not(LEAVES[2]),
            And([Or([LEAVES[0], LEAVES[4]]), Not(LEAVES[5])]),
            Or([And([LEAVES[3], LEAVES[1]]), Not(Or([LEAVES[6], LEAVES[2]]))]),
            And([LEAVES[0], LEAVES[2], LEAVES[3]]),
        ],
    )
    @pytest.mark.parametrize("group_by", GROUPINGS)
    def test_where_and_group_by(self, where, group_by):
        assert_same_answer(
            Query("sales", (COUNT, *MEASURES), group_by, where=where)
        )

    @pytest.mark.parametrize("measure", MEASURES)
    def test_numeric_dimension_aggregate(self, measure):
        assert_same_answer(
            Query("sales", (measure,), ("channel",), where=LEAVES[0])
        )

    @pytest.mark.parametrize(
        "where",
        [LEAVES[7], And([LEAVES[0], Not(LEAVES[0])]), And([LEAVES[7], LEAVES[5]])],
    )
    def test_predicate_selecting_nothing(self, where):
        query = Query("sales", (COUNT, MEASURES[0]), ("c_region",), where=where)
        assert execute(STAR, query).rows == {}
        assert_same_answer(query)

    def test_having_order_by_limit(self):
        assert_same_answer(
            Query(
                "sales",
                (COUNT, MEASURES[1], MEASURES[3]),
                ("p_category", "c_region"),
                where=Or([LEAVES[0], LEAVES[6]]),
                having=(("n", CompareOp.GE, 20),),
                order_by=(("a", True), ("c_region", False)),
                limit=7,
            )
        )

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        where=st.recursive(
            st.sampled_from(LEAVES),
            lambda inner: st.one_of(
                st.lists(inner, min_size=1, max_size=3).map(And),
                st.lists(inner, min_size=1, max_size=3).map(Or),
                inner.map(Not),
            ),
            max_leaves=6,
        )
        | st.none(),
        group_by=st.sampled_from(GROUPINGS),
        measures=st.lists(st.sampled_from(MEASURES), min_size=0, max_size=3),
    )
    def test_sweep(self, where, group_by, measures):
        aggregates = (COUNT, *dict.fromkeys(measures))
        assert_same_answer(Query("sales", aggregates, group_by, where=where))

    def test_fact_key_without_dimension_row_raises(self):
        fact = STAR.fact_table
        dangling = Table(
            "sales",
            {
                **{c: fact.column(c) for c in fact.column_names},
                "cust": Column.ints([999] + fact.column("cust").to_list()[1:]),
            },
        )
        db = Database(
            [dangling, STAR.table("customers"), STAR.table("products")],
            STAR.star_schema,
        )
        with pytest.raises(SchemaError):
            execute(db, Query("sales", (COUNT,), ("c_region",)))
        with pytest.raises(SchemaError):
            execute(db, Query("sales", (COUNT,), where=LEAVES[0]))


def _memo(column: Column) -> dict:
    memo = column._memo
    return {} if memo is None else memo


class TestNoFactLengthDimensionCopy:
    def test_memos_hold_only_positions_masks_and_own_codes(self):
        db = _star_db(seed=9)
        get_cache().clear()
        queries = [
            Query("sales", (COUNT, *MEASURES), group_by, where=where)
            for group_by in GROUPINGS
            for where in (None, LEAVES[0], Or([LEAVES[1], LEAVES[6]]))
        ]
        for query in queries:
            execute(db, query)
        fact = db.fact_table
        view = db.joined_view()
        kinds = set()
        for name in fact.column_names:
            column = fact.column(name)
            for (kind, key), (_, value) in _memo(column).items():
                kinds.add(kind)
                if kind == "join_positions":
                    assert name in ("cust", "prod")
                    assert value.dtype == np.int32
                elif kind == "column_codes":
                    codes, _ = value
                    assert len(codes) == len(column)
                else:
                    # One bit per fact row, packed.
                    assert kind == "predicate_mask", (name, kind)
                    assert value.dtype == np.uint8
                    assert value.nbytes == -(-len(column) // 8)
                    np.testing.assert_array_equal(
                        np.unpackbits(value, count=len(column)).view(bool),
                        key.evaluate(view),
                    )
        assert kinds == {"join_positions", "column_codes", "predicate_mask"}
        for fk in db.star_schema.foreign_keys:
            dimension = db.table(fk.dimension_table)
            for name in dimension.column_names:
                for (kind, _), (_, value) in _memo(
                    dimension.column(name)
                ).items():
                    assert kind == "column_codes", (name, kind)
                    assert len(value[0]) == dimension.n_rows
