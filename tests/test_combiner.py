"""Tests for piece execution and result combination."""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import combiner
from repro.core.answer import GroupEstimate
from repro.core.combiner import execute_pieces
from repro.core.rewriter import SamplePiece, pieces_to_sql
from repro.core.smallgroup import OverallPart
from repro.engine.deadline import Deadline
from repro.engine.executor import aggregate_table
from repro.engine.expressions import AggFunc, AggregateSpec, CompareOp, Query
from repro.engine.table import Table
from repro.errors import DeadlineExceeded, InternalError, RuntimePhaseError

COUNT = AggregateSpec(AggFunc.COUNT, alias="cnt")


def make_piece(values, rate=1.0, zero_variance=False, counts_as_exact=None):
    table = Table.from_dict("part", {"g": values})
    return SamplePiece(
        table=table,
        query=Query("part", (COUNT,), ("g",)),
        rate=rate,
        variance_weights=None if zero_variance else np.full(len(values), 2.0),
        zero_variance=zero_variance,
        counts_as_exact=counts_as_exact,
    )


class TestExecutePieces:
    def test_values_sum_across_pieces(self):
        answer = execute_pieces(
            [make_piece(["a", "a"]), make_piece(["a", "b"])], "t"
        )
        assert answer.value(("a",)) == 3.0
        assert answer.value(("b",)) == 1.0

    def test_scaling(self):
        answer = execute_pieces([make_piece(["a"], rate=0.01)], "t")
        assert answer.value(("a",)) == 100.0

    def test_variances_add(self):
        answer = execute_pieces(
            [make_piece(["a"]), make_piece(["a"])], "t"
        )
        # Each piece contributes variance_weight=2 per row.
        assert answer.estimate(("a",)).variance == pytest.approx(4.0)

    def test_exact_only_when_all_pieces_exact(self):
        exact_piece = make_piece(["a"], zero_variance=True)
        sampled_piece = make_piece(["a", "b"])
        answer = execute_pieces([exact_piece, sampled_piece], "t")
        assert not answer.estimate(("a",)).exact
        assert not answer.estimate(("b",)).exact
        answer2 = execute_pieces([exact_piece], "t")
        assert answer2.estimate(("a",)).exact

    def test_counts_as_exact_override(self):
        piece = make_piece(["a"], zero_variance=True, counts_as_exact=False)
        answer = execute_pieces([piece], "t")
        assert answer.estimate(("a",)).variance == 0.0
        assert not answer.estimate(("a",)).exact

    def test_rows_scanned(self):
        answer = execute_pieces(
            [make_piece(["a", "b"]), make_piece(["c"])], "t"
        )
        assert answer.rows_scanned == 3

    def test_rewritten_sql_emitted(self):
        pieces = [make_piece(["a"]), make_piece(["b"], rate=0.1)]
        answer = execute_pieces(pieces, "t")
        assert "UNION ALL" in answer.rewritten_sql
        assert answer.rewritten_sql == pieces_to_sql(pieces)

    def test_empty_pieces_rejected(self):
        with pytest.raises(RuntimePhaseError):
            execute_pieces([], "t")

    def test_mismatched_aggregates_rejected(self):
        a = make_piece(["a"])
        b = make_piece(["a"])
        b.query = Query(
            "part", (AggregateSpec(AggFunc.COUNT, alias="other"),), ("g",)
        )
        with pytest.raises(RuntimePhaseError):
            execute_pieces([a, b], "t")

    def test_unsupported_aggregate_rejected(self):
        table = Table.from_dict("p", {"g": ["a"], "v": [1.0]})
        piece = SamplePiece(
            table=table,
            query=Query(
                "p", (AggregateSpec(AggFunc.MIN, "v"),), ("g",)
            ),
            rate=1.0,
        )
        with pytest.raises(RuntimePhaseError, match="COUNT, SUM, and AVG"):
            execute_pieces([piece], "t")

    def test_avg_single_exact_piece(self):
        table = Table.from_dict("p", {"g": ["a", "a", "b"], "v": [2.0, 4.0, 9.0]})
        piece = SamplePiece(
            table=table,
            query=Query("p", (AggregateSpec(AggFunc.AVG, "v", alias="m"),), ("g",)),
            rate=1.0,
            zero_variance=True,
        )
        answer = execute_pieces([piece], "t")
        assert answer.value(("a",), "m") == pytest.approx(3.0)
        assert answer.value(("b",), "m") == pytest.approx(9.0)
        assert answer.estimate(("a",), "m").exact

    def test_avg_ratio_across_strata(self):
        # Exact stratum: two rows of value 10; sampled stratum at scale 2:
        # one row of value 4 representing two rows.  AVG = (20+8)/(2+2) = 7.
        exact_piece = SamplePiece(
            table=Table.from_dict("p", {"g": ["a", "a"], "v": [10.0, 10.0]}),
            query=Query("p", (AggregateSpec(AggFunc.AVG, "v", alias="m"),), ("g",)),
            rate=1.0,
            zero_variance=True,
        )
        sampled_piece = SamplePiece(
            table=Table.from_dict("p", {"g": ["a"], "v": [4.0]}),
            query=Query("p", (AggregateSpec(AggFunc.AVG, "v", alias="m"),), ("g",)),
            rate=0.5,
            variance_weights=np.array([2.0]),
        )
        answer = execute_pieces([exact_piece, sampled_piece], "t")
        assert answer.value(("a",), "m") == pytest.approx(7.0)
        estimate = answer.estimate(("a",), "m")
        assert not estimate.exact
        assert estimate.variance >= 0.0

    def test_avg_rewritten_sql_shows_components(self):
        table = Table.from_dict("p", {"g": ["a"], "v": [1.0]})
        piece = SamplePiece(
            table=table,
            query=Query("p", (AggregateSpec(AggFunc.AVG, "v", alias="m"),), ("g",)),
            rate=0.25,
            variance_weights=np.array([1.0]),
        )
        answer = execute_pieces([piece], "t")
        assert "SUM(v)" in answer.rewritten_sql
        assert "COUNT(*)" in answer.rewritten_sql
        assert "AVG" not in answer.rewritten_sql

    def test_technique_and_pieces_recorded(self):
        answer = execute_pieces(
            [make_piece(["a"])], technique="my_technique"
        )
        assert answer.technique == "my_technique"
        assert answer.pieces == ("part",)


class TestAnswerAccessors:
    def test_estimate_missing_group(self):
        answer = execute_pieces([make_piece(["a"])], "t")
        with pytest.raises(RuntimePhaseError):
            answer.estimate(("zz",))

    def test_unknown_aggregate(self):
        answer = execute_pieces([make_piece(["a"])], "t")
        with pytest.raises(RuntimePhaseError):
            answer.value(("a",), "nope")

    def test_n_groups(self):
        answer = execute_pieces([make_piece(["a", "b", "b"])], "t")
        assert answer.n_groups == 2


class TestPieceDeadlines:
    """The deadline is checked before every piece, in piece order."""

    @staticmethod
    def _count_aggregations(monkeypatch, after=None):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            result = aggregate_table(*args, **kwargs)
            if after is not None:
                after()
            return result

        monkeypatch.setattr(combiner, "aggregate_table", counting)
        return calls

    def test_expired_deadline_stops_before_any_piece(self, monkeypatch):
        calls = self._count_aggregations(monkeypatch)
        deadline = Deadline(1e-6)
        while not deadline.expired():
            pass
        with pytest.raises(DeadlineExceeded, match="piece"):
            execute_pieces(
                [make_piece(["a"]), make_piece(["b"])], "t", deadline=deadline
            )
        assert calls == []

    def test_deadline_expiring_in_first_piece_stops_the_loop(self, monkeypatch):
        deadline = Deadline(0.05)

        def run_out_the_clock():
            while not deadline.expired():
                time.sleep(0.001)

        calls = self._count_aggregations(monkeypatch, after=run_out_the_clock)
        with pytest.raises(DeadlineExceeded, match="piece"):
            execute_pieces(
                [make_piece(["a"]), make_piece(["b"])], "t", deadline=deadline
            )
        assert len(calls) == 1


class TestScaleDiscipline:
    """§4.2.2: ``1/r`` on a sampled branch, exactly 1 on a 100%-sampled one.

    A piece's scale is derived from its rate, so it cannot be stated
    wrongly; inconsistent input raises at construction.
    """

    QUERY = Query("part", (COUNT,), ("g",))

    def _table(self):
        return Table.from_dict("part", {"g": ["a"]})

    def test_scale_is_derived_from_rate(self):
        assert make_piece(["a"], rate=0.25).scale == 4.0
        assert make_piece(["a"], zero_variance=True).scale == 1.0
        weighted = SamplePiece(
            table=self._table(), query=self.QUERY, weights=np.array([2.0])
        )
        assert weighted.scale == 1.0

    def test_a_sampled_piece_cannot_state_a_unit_scale(self):
        with pytest.raises(TypeError):
            SamplePiece(table=self._table(), query=self.QUERY, scale=1.0)
        piece = make_piece(["a"], rate=0.5)
        with pytest.raises(AttributeError):
            piece.scale = 1.0

    def test_exact_piece_must_be_fully_sampled(self):
        with pytest.raises(InternalError, match="zero-variance"):
            make_piece(["a"], rate=0.5, zero_variance=True)
        with pytest.raises(InternalError, match="zero-variance"):
            SamplePiece(
                table=self._table(),
                query=self.QUERY,
                weights=np.array([2.0]),
                zero_variance=True,
            )

    def test_zero_variance_read_from_a_part_is_checked(self):
        """``zero_variance=part.zero_variance`` is only known at runtime."""

        def piece_from(part):
            return SamplePiece(
                table=part.table,
                query=self.QUERY,
                rate=part.rate,
                zero_variance=part.zero_variance,
            )

        outliers = OverallPart(table=self._table(), rate=1.0, zero_variance=True)
        remainder = OverallPart(table=self._table(), rate=0.25)
        assert piece_from(outliers).scale == 1.0
        assert piece_from(remainder).scale == 4.0
        # A part is frozen; force its fields to disagree as a stand-in
        # for a bad value arriving from elsewhere.
        object.__setattr__(outliers, "rate", 0.5)
        with pytest.raises(InternalError, match="zero-variance"):
            piece_from(outliers)

    def test_exactly_one_of_rate_and_weights(self):
        with pytest.raises(InternalError, match="exactly one"):
            SamplePiece(table=self._table(), query=self.QUERY)
        with pytest.raises(InternalError, match="exactly one"):
            SamplePiece(
                table=self._table(),
                query=self.QUERY,
                rate=0.5,
                weights=np.array([2.0]),
            )

    @pytest.mark.parametrize("rate", [0.0, -0.5, 2.0, 100.0, float("nan")])
    def test_rate_outside_unit_interval(self, rate):
        with pytest.raises(InternalError, match="outside"):
            make_piece(["a"], rate=rate)

    def test_overall_part_obeys_the_same_rule(self):
        assert OverallPart(table=self._table(), rate=0.25).scale == 4.0
        with pytest.raises(InternalError, match="zero-variance"):
            OverallPart(table=self._table(), rate=0.5, zero_variance=True)
        with pytest.raises(InternalError, match="outside"):
            OverallPart(table=self._table(), rate=4.0)

    def test_rewritten_sql_keeps_every_piece_field(self):
        weighted = SamplePiece(
            table=Table.from_dict("part", {"g": ["b"]}),
            query=self.QUERY,
            weights=np.array([3.0]),
            variance_weights=np.array([6.0]),
        )
        pieces = [make_piece(["a"], zero_variance=True), weighted]
        answer = execute_pieces(pieces, "t")
        assert answer.rewritten_sql == pieces_to_sql(pieces)
        assert answer.value(("b",)) == 3.0



def reference_combine(answer, query):
    """The per-group dict combine that the columnar merge replaced.

    Re-runs the pieces ``answer`` executed, folds their partials group by
    group in piece order, applies HAVING, then ORDER BY and LIMIT to the
    estimates.  Returns ``(groups, top_k_confident)``: ``groups`` maps each
    kept key, in order, to one ``(value, variance, exact)`` per aggregate.
    """
    components = answer.executed[0][1].aggregates
    n = len(components)
    values, variances, crosses, all_exact = {}, {}, {}, {}
    for piece, exec_query in answer.executed:
        result = aggregate_table(
            piece.table,
            exec_query,
            weights=piece.weights,
            scale=piece.scale,
            collect_variance_stats=not piece.zero_variance,
            variance_weights=piece.variance_weights,
        )
        squares, cross = (
            {name: dict(zip(result.keys, array.tolist())) for name, array in stats.items()}
            for stats in (result.sum_squares, result.sum_cross)
        )
        for group, row in result.rows.items():
            if group not in values:
                values[group], variances[group] = [0.0] * n, [0.0] * n
                crosses[group], all_exact[group] = [0.0] * n, True
            for i, value in enumerate(row):
                values[group][i] += value
            if not piece.marks_exact:
                all_exact[group] = False
            if piece.zero_variance:
                continue
            for i, spec in enumerate(components):
                variances[group][i] += squares.get(spec.name, {}).get(group, 0.0)
                crosses[group][i] += cross.get(spec.name, {}).get(group, 0.0)
    component_names = [c.name for c in components]
    counts = [i for i, c in enumerate(components) if c.func is AggFunc.COUNT]
    names = [agg.name for agg in query.aggregates]
    groups = {}
    for group in values:
        cells = []
        for agg in query.aggregates:
            if agg.func is not AggFunc.AVG:
                i = component_names.index(agg.name)
                cells.append((values[group][i], variances[group][i], all_exact[group]))
                continue
            s = component_names.index(f"avg_sum_{agg.name}")
            count = counts[0]
            total, rows = values[group][s], values[group][count]
            if rows <= 0:
                cells.append((float("nan"), 0.0, False))
                continue
            ratio = total / rows
            delta = (
                variances[group][s]
                - 2.0 * ratio * crosses[group][s]
                + ratio * ratio * variances[group][count]
            ) / (rows * rows)
            cells.append((ratio, max(0.0, delta), all_exact[group]))
        groups[group] = tuple(cells)
    passes = {CompareOp.GT: float.__gt__, CompareOp.GE: float.__ge__}
    groups = {
        group: cells
        for group, cells in groups.items()
        if all(
            passes[op](cells[names.index(name)][0], float(threshold))
            for name, op, threshold in query.having
        )
    }
    ordered = list(groups)
    for name, descending in reversed(query.order_by):
        if name in query.group_by:
            column = query.group_by.index(name)
            ordered.sort(key=lambda g: g[column], reverse=descending)
        else:
            agg = names.index(name)
            ordered.sort(key=lambda g: groups[g][agg][0], reverse=descending)
    kept = ordered[: query.limit]
    confident = None
    if len(ordered) > len(kept) and query.order_by and query.order_by[0][0] in names:
        agg = names.index(query.order_by[0][0])
        last = GroupEstimate(*groups[kept[-1]][agg]).confidence_interval()
        best = GroupEstimate(*groups[ordered[len(kept)]][agg]).confidence_interval()
        confident = last[0] > best[1] if query.order_by[0][1] else last[1] < best[0]
    return {group: groups[group] for group in kept}, confident


AGGREGATES = {
    "cnt": COUNT,
    "s": AggregateSpec(AggFunc.SUM, "v", alias="s"),
    "m": AggregateSpec(AggFunc.AVG, "v", alias="m"),
}


@st.composite
def pieces_and_query(draw):
    """1-4 pieces (exact, outlier-like or sampled) and a COUNT/SUM/AVG query
    over a string and a NaN-holding float grouping column; the measure
    holds NaN too, so AVG variances can be NaN before the clamp."""
    names = draw(st.permutations(sorted(AGGREGATES)))[: draw(st.integers(1, 3))]
    group_by = draw(st.sampled_from([("g",), ("g", "h"), ()]))
    having = draw(
        st.lists(
            st.tuples(
                st.sampled_from(names),
                st.sampled_from([CompareOp.GT, CompareOp.GE]),
                st.sampled_from([0.0, 2.0, 25.0]),
            ),
            max_size=2,
        )
    )
    order_by = draw(
        st.dictionaries(st.sampled_from(names + list(group_by)), st.booleans(), max_size=2)
    )
    query = Query(
        "part",
        tuple(AGGREGATES[name] for name in names),
        group_by,
        order_by=tuple(order_by.items()),
        limit=draw(st.sampled_from([None, 1, 2, 4])),
        having=tuple(having),
    )
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 12))
        column = lambda elements: draw(st.lists(elements, min_size=n, max_size=n))
        table = Table.from_dict(
            "part",
            {
                "g": column(st.sampled_from("abcdef")),
                "h": column(st.sampled_from([0.5, 1.5, float("nan")])),
                "v": column(st.floats(-50, 50, width=32) | st.just(float("nan"))),
            },
        )
        if draw(st.booleans()):
            piece = SamplePiece(
                table=table,
                query=query,
                rate=1.0,
                zero_variance=True,
                counts_as_exact=draw(st.sampled_from([None, False])),
            )
        else:
            piece = SamplePiece(
                table=table,
                query=query,
                rate=draw(st.sampled_from([0.1, 0.5, 1.0])),
                variance_weights=np.array(column(st.floats(0.0, 3.0, width=32))),
            )
        pieces.append(piece)
    return pieces, query


@given(case=pieces_and_query())
@settings(max_examples=200, deadline=None)
def test_columnar_merge_equals_the_per_group_reference(case):
    """Keys in order, every value, variance and exact flag, and the top-k
    verdict equal the per-group fold bit for bit (``repr`` puts NaN equal
    to NaN and tells ``-0.0`` from ``0.0``)."""
    pieces, query = case
    answer = execute_pieces(pieces, "t")
    expected, confident = reference_combine(answer, query)
    per_aggregate = [
        list(zip(values.tolist(), variances.tolist(), exact.tolist()))
        for values, variances, exact in zip(
            answer.values, answer.variances, answer.exact
        )
    ]
    got = {
        key: tuple(cells[i] for cells in per_aggregate)
        for i, key in enumerate(answer.keys)
    }
    assert repr(got) == repr(expected)
    assert answer.top_k_confident == confident
