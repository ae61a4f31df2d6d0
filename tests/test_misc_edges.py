"""Edge-case coverage across smaller surfaces."""


import numpy as np
import pytest

from repro.core.interfaces import PreprocessReport
from repro.engine.executor import GroupColumns
from repro.engine.expressions import AggFunc, AggregateSpec
from repro.errors import (
    ColumnTypeError,
    ExperimentError,
    PreprocessingError,
    QueryError,
    ReproError,
    RuntimePhaseError,
    SamplingError,
    SchemaError,
    SQLSyntaxError,
    UnsupportedQueryError,
    WorkloadError,
)
from repro.middleware.session import SessionResult
from repro.sql import parse_query
from repro.sql.formatter import format_aggregate, format_literal


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error",
        [
            SchemaError,
            ColumnTypeError,
            QueryError,
            UnsupportedQueryError,
            SQLSyntaxError,
            SamplingError,
            PreprocessingError,
            RuntimePhaseError,
            WorkloadError,
            ExperimentError,
        ],
    )
    def test_all_derive_from_repro_error(self, error):
        assert issubclass(error, ReproError)

    def test_column_type_is_schema_error(self):
        assert issubclass(ColumnTypeError, SchemaError)

    def test_preprocessing_is_sampling_error(self):
        assert issubclass(PreprocessingError, SamplingError)

    def test_sql_syntax_position(self):
        error = SQLSyntaxError("bad", position=7)
        assert error.position == 7
        assert SQLSyntaxError("bad").position is None


class TestFormatterEdges:
    def test_float_literal_with_integer_value(self):
        assert format_literal(3.0) == "3.0"
        assert format_literal(3) == "3"

    def test_bool_literal(self):
        assert format_literal(True) == "1"
        assert format_literal(False) == "0"

    def test_fractional_scale(self):
        agg = AggregateSpec(AggFunc.COUNT, alias="c")
        assert format_aggregate(agg, scale=12.5) == "COUNT(*) * 12.5 AS c"
        assert format_aggregate(agg, scale=4.0) == "COUNT(*) * 4 AS c"


class TestOrderLimitGroups:
    def test_order_by_group_column_then_limit(self):
        keys = [("b",), ("a",), ("c",)]
        groups = GroupColumns(("g",), ("cnt",), keys, (np.array([2.0, 9.0, 1.0]),))
        kept = groups.order_limit_groups(range(3), (("g", False),), 2)
        assert [keys[i] for i in kept] == [("a",), ("b",)]

    def test_no_order_just_limit(self):
        keys = [("a",), ("b",)]
        groups = GroupColumns(("g",), ("cnt",), keys, (np.array([1.0, 2.0]),))
        assert groups.order_limit_groups(range(2), (), 1) == [0]


class TestPreprocessReport:
    def test_zero_database_guards(self):
        report = PreprocessReport(
            technique="t",
            wall_time_seconds=0.0,
            sample_rows=10,
            sample_bytes=100,
            database_rows=0,
            database_bytes=0,
            n_sample_tables=1,
        )
        assert report.space_overhead == 0.0
        assert report.row_overhead == 0.0


class TestSessionResult:
    def test_exact_only_rendering(self, flat_db):
        from repro.engine.executor import execute

        query = parse_query(
            "SELECT status, COUNT(*) AS cnt FROM flat GROUP BY status"
        )
        result = SessionResult(
            sql="...",
            query=query,
            exact=execute(flat_db, query),
            exact_seconds=0.01,
        )
        text = result.to_text()
        assert "exact answer" in text
        assert "approximate" not in text
        assert result.speedup is None
