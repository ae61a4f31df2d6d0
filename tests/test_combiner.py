"""Tests for piece execution and result combination."""

import time

import numpy as np
import pytest

from repro.core import combiner
from repro.core.combiner import execute_pieces
from repro.core.rewriter import SamplePiece, pieces_to_sql
from repro.engine.deadline import Deadline
from repro.engine.executor import aggregate_table
from repro.engine.expressions import AggFunc, AggregateSpec, Query
from repro.engine.table import Table
from repro.errors import DeadlineExceeded, RuntimePhaseError

COUNT = AggregateSpec(AggFunc.COUNT, alias="cnt")


def make_piece(values, scale=1.0, zero_variance=False, counts_as_exact=None):
    table = Table.from_dict("part", {"g": values})
    return SamplePiece(
        table=table,
        query=Query("part", (COUNT,), ("g",)),
        scale=scale,
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
        answer = execute_pieces([make_piece(["a"], scale=100.0)], "t")
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
        pieces = [make_piece(["a"]), make_piece(["b"], scale=10.0)]
        answer = execute_pieces(pieces, "t")
        assert "UNION ALL" in answer.rewritten_sql
        assert answer.rewritten_sql == pieces_to_sql(pieces)
        silent = execute_pieces(pieces, "t", emit_sql=False)
        assert silent.rewritten_sql is None

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
        )
        with pytest.raises(RuntimePhaseError, match="COUNT, SUM, and AVG"):
            execute_pieces([piece], "t")

    def test_avg_single_exact_piece(self):
        table = Table.from_dict("p", {"g": ["a", "a", "b"], "v": [2.0, 4.0, 9.0]})
        piece = SamplePiece(
            table=table,
            query=Query("p", (AggregateSpec(AggFunc.AVG, "v", alias="m"),), ("g",)),
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
            zero_variance=True,
        )
        sampled_piece = SamplePiece(
            table=Table.from_dict("p", {"g": ["a"], "v": [4.0]}),
            query=Query("p", (AggregateSpec(AggFunc.AVG, "v", alias="m"),), ("g",)),
            scale=2.0,
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
            scale=4.0,
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
