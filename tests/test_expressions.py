"""Unit tests for predicates and query AST validation."""

import numpy as np
import pytest

from repro.engine.bitmask import Bitmask, BitmaskVector
from repro.engine.column import Column
from repro.engine.expressions import (
    AggFunc,
    AggregateSpec,
    And,
    Between,
    BitmaskDisjoint,
    Compare,
    CompareOp,
    Equals,
    InSet,
    Not,
    Or,
    Predicate,
    Query,
    conjoin,
)
from repro.engine.table import Table
from repro.errors import ColumnTypeError, QueryError


class TestPredicates:
    def test_equals_string(self, small_table):
        mask = Equals("a", "y").evaluate(small_table)
        assert mask.tolist() == [False, False, True, True, True, False, False, False]

    def test_equals_int(self, small_table):
        assert Equals("b", 2).evaluate(small_table).sum() == 3

    def test_equals_missing_string_value(self, small_table):
        assert not Equals("a", "none_such").evaluate(small_table).any()

    def test_in_set_strings(self, small_table):
        mask = InSet("a", ["x", "z"]).evaluate(small_table)
        assert mask.sum() == 5

    def test_in_set_ignores_unknown_strings(self, small_table):
        mask = InSet("a", ["x", "nope"]).evaluate(small_table)
        assert mask.sum() == 3

    def test_in_set_all_unknown_is_empty(self, small_table):
        assert not InSet("a", ["q1", "q2"]).evaluate(small_table).any()

    def test_in_set_ints(self, small_table):
        assert InSet("b", [1]).evaluate(small_table).sum() == 5

    def test_compare_numeric(self, small_table):
        assert Compare("v", CompareOp.GT, 50.0).evaluate(small_table).sum() == 3
        assert Compare("v", CompareOp.LE, 10.0).evaluate(small_table).sum() == 1
        assert Compare("v", CompareOp.NE, 10.0).evaluate(small_table).sum() == 7

    def test_compare_string_equality_only(self, small_table):
        assert Compare("a", CompareOp.EQ, "x").evaluate(small_table).sum() == 3
        with pytest.raises(QueryError):
            Compare("a", CompareOp.LT, "x").evaluate(small_table)

    def test_between(self, small_table):
        assert Between("v", 20.0, 40.0).evaluate(small_table).sum() == 3

    def test_between_rejects_strings(self, small_table):
        with pytest.raises(QueryError):
            Between("a", "a", "z").evaluate(small_table)

    def test_and(self, small_table):
        pred = And([Equals("a", "y"), Equals("b", 1)])
        assert pred.evaluate(small_table).sum() == 2

    def test_and_requires_operands(self):
        with pytest.raises(QueryError):
            And([])

    def test_not(self, small_table):
        assert Not(Equals("a", "x")).evaluate(small_table).sum() == 5

    def test_or(self, small_table):
        pred = Or([Equals("a", "x"), Equals("b", 2)])
        assert pred.evaluate(small_table).sum() == 5

    def test_or_requires_operands(self):
        with pytest.raises(QueryError):
            Or([])

    def test_or_columns_and_cache_safety(self):
        pred = Or([Equals("a", "x"), Between("v", 0, 1)])
        assert pred.columns() == {"a", "v"}
        assert pred.cache_safe()
        assert not Or([Equals("a", "x"), BitmaskDisjoint(Bitmask(4))]).cache_safe()

    def test_columns(self):
        pred = And([Equals("a", "x"), Between("v", 0, 1), Not(InSet("b", [1]))])
        assert pred.columns() == {"a", "v", "b"}

    def test_conjoin(self):
        assert conjoin([]) is None
        single = Equals("a", "x")
        assert conjoin([single]) is single
        combined = conjoin([single, Equals("b", 1)])
        assert isinstance(combined, And)

    def test_bitmask_disjoint(self, small_table):
        vec = BitmaskVector(8, 4)
        vec.set_bit(np.arange(4), 1)
        t = small_table.with_bitmask(vec)
        mask = BitmaskDisjoint(Bitmask(4, [1])).evaluate(t)
        assert mask.tolist() == [False] * 4 + [True] * 4

    def test_bitmask_disjoint_without_vector(self, small_table):
        assert BitmaskDisjoint(Bitmask(4)).evaluate(small_table).all()
        with pytest.raises(QueryError):
            BitmaskDisjoint(Bitmask(4, [0])).evaluate(small_table)


class TestAggregateSpec:
    def test_count_star_only(self):
        with pytest.raises(QueryError):
            AggregateSpec(AggFunc.COUNT, "v")

    def test_sum_requires_column(self):
        with pytest.raises(QueryError):
            AggregateSpec(AggFunc.SUM)

    def test_names(self):
        assert AggregateSpec(AggFunc.COUNT).name == "count"
        assert AggregateSpec(AggFunc.SUM, "v").name == "sum_v"
        assert AggregateSpec(AggFunc.SUM, "v", alias="t").name == "t"

    def test_describe(self):
        assert AggregateSpec(AggFunc.COUNT).describe() == "COUNT(*)"
        assert AggregateSpec(AggFunc.AVG, "v").describe() == "AVG(v)"


class TestQuery:
    def test_requires_aggregate(self):
        with pytest.raises(QueryError):
            Query("t", ())

    def test_duplicate_group_column(self):
        with pytest.raises(QueryError):
            Query("t", (AggregateSpec(AggFunc.COUNT),), group_by=("a", "a"))

    def test_referenced_columns(self):
        q = Query(
            "t",
            (AggregateSpec(AggFunc.SUM, "v"),),
            group_by=("a",),
            where=Equals("b", 1),
        )
        assert q.referenced_columns() == {"a", "b", "v"}

    def test_with_table(self):
        q = Query("t", (AggregateSpec(AggFunc.COUNT),))
        assert q.with_table("s").table == "s"

    def test_and_where_combines(self):
        q = Query("t", (AggregateSpec(AggFunc.COUNT),), where=Equals("a", "x"))
        q2 = q.and_where(Equals("b", 1))
        assert isinstance(q2.where, And)
        assert len(q2.where.operands) == 2

    def test_and_where_none_is_identity(self):
        q = Query("t", (AggregateSpec(AggFunc.COUNT),))
        assert q.and_where(None) is q

    def test_and_where_onto_empty(self):
        q = Query("t", (AggregateSpec(AggFunc.COUNT),))
        assert q.and_where(Equals("a", "x")).where == Equals("a", "x")


class SpyEquals(Equals):
    """Equals that counts how often its mask is actually computed.

    The counter is class-level because the dataclass is frozen.
    """

    calls = 0

    def evaluate(self, table):
        type(self).calls += 1
        return super().evaluate(table)


class TestOrArmOrdering:
    """OR arms run cheapest-first, mirroring AND, and stop once all-true."""

    def _reset(self):
        SpyEquals.calls = 0

    def test_all_true_arm_short_circuits_later_arms(self, small_table):
        # v spans [10, 80], so v >= 0 holds on every row.
        broad = Compare("v", CompareOp.GE, 0.0)
        self._reset()
        assert Or([broad, SpyEquals("a", "x")]).evaluate(small_table).all()
        assert SpyEquals.calls == 0

    def test_unsaturated_arms_all_evaluate(self, small_table):
        self._reset()
        pred = Or([SpyEquals("a", "x"), Equals("b", 2)])
        assert pred.evaluate(small_table).sum() == 5
        assert SpyEquals.calls == 1

    def test_ordering_without_table_is_cost_ranked(self):
        cheap = Equals("a", "x")
        costly = BitmaskDisjoint(Bitmask(4))
        assert Or([costly, cheap]).ordered_operands() == (cheap, costly)

    def test_ordering_is_answer_neutral(self, small_table):
        pred = Or([Equals("b", 1), Compare("v", CompareOp.GT, 55.0)])
        by_hand = (
            Equals("b", 1).evaluate(small_table)
            | Compare("v", CompareOp.GT, 55.0).evaluate(small_table)
        )
        assert pred.evaluate(small_table).tolist() == by_hand.tolist()


def blocks_table(n: int = 40, block: int = 10) -> Table:
    """``x`` = 0..n-1 and ``grp`` = a, b, c, d in blocks of ``block`` rows."""
    return Table(
        "t",
        {
            "x": Column.ints(np.arange(n)),
            "grp": Column.strings(["abcd"[i // block] for i in range(n)]),
        },
    )


class TestTypedErrors:
    @pytest.mark.parametrize(
        "pred, error",
        [
            (Between("grp", "a", "b"), QueryError),
            (Compare("grp", CompareOp.LT, "b"), QueryError),
            (Equals("x", "oops"), ColumnTypeError),
        ],
    )
    def test_typed_errors_raise(self, pred, error):
        with pytest.raises(error):
            pred.evaluate(blocks_table())


class Recording(Predicate):
    """Wrapper counting how often it is evaluated (not cache-safe)."""

    def __init__(self, inner: Predicate, cost: int = 0) -> None:
        self.inner = inner
        self.cost = cost
        self.calls = 0

    def evaluate(self, table):
        self.calls += 1
        return self.inner.evaluate(table)

    def evaluation_cost(self):
        return self.cost

    def columns(self):
        return self.inner.columns()

    def cache_safe(self):
        return False


class TestAndShortCircuit:
    """AND orders conjuncts cheapest-first and stops once the running
    mask is all-false."""

    def test_all_false_mask_skips_remaining_conjuncts(self):
        expensive = Recording(Equals("x", 5), cost=1)
        pred = And([Equals("grp", "zzz"), expensive])
        assert not pred.evaluate(blocks_table()).any()
        assert expensive.calls == 0

    def test_bitmask_filter_runs_after_column_leaves(self):
        # On a bitmask-less table a non-zero mask filter raises — unless
        # a cheaper conjunct already emptied the mask.
        table = blocks_table()
        pred = And([BitmaskDisjoint(Bitmask(4, [1])), Equals("grp", "zzz")])
        assert not pred.evaluate(table).any()
        live = And([BitmaskDisjoint(Bitmask(4, [1])), Equals("grp", "a")])
        with pytest.raises(QueryError):
            live.evaluate(table)

    def test_nonempty_mask_evaluates_every_conjunct(self):
        second = Recording(Equals("x", 5), cost=1)
        pred = And([Equals("grp", "a"), second])
        expected = (np.arange(40) < 10) & (np.arange(40) == 5)
        assert np.array_equal(pred.evaluate(blocks_table()), expected)
        assert second.calls == 1
