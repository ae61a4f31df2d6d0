"""Tests for the Section 5.2.3 workload generator."""

import pytest

from repro.engine.column import ColumnKind
from repro.engine.executor import execute
from repro.engine.expressions import AggFunc, And, InSet
from repro.errors import WorkloadError
from repro.workload.generator import (
    eligible_grouping_columns,
    generate_workload,
)
from repro.workload.spec import WorkloadConfig


def small_config(**overrides):
    defaults = dict(
        group_column_counts=(1, 2),
        predicate_counts=(1,),
        subset_fractions=(0.1, 0.3),
        queries_per_combo=3,
        seed=0,
    )
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


class TestConfigValidation:
    def test_sum_requires_measures(self):
        with pytest.raises(WorkloadError):
            WorkloadConfig(aggregate="SUM")

    def test_bad_aggregate(self):
        with pytest.raises(WorkloadError):
            WorkloadConfig(aggregate="MEDIAN")

    def test_bad_fraction(self):
        with pytest.raises(WorkloadError):
            WorkloadConfig(subset_fractions=(0.0,))

    def test_bad_count(self):
        with pytest.raises(WorkloadError):
            WorkloadConfig(queries_per_combo=0)


class TestEligibility:
    def test_only_categorical_columns(self, tiny_tpch):
        view = tiny_tpch.joined_view()
        columns = eligible_grouping_columns(view, small_config())
        assert columns
        for name in columns:
            assert view.column(name).kind is ColumnKind.STRING

    def test_excludes_configured(self, tiny_tpch):
        view = tiny_tpch.joined_view()
        config = small_config(exclude_columns=("l_shipmode",))
        assert "l_shipmode" not in eligible_grouping_columns(view, config)

    def test_excludes_near_unique(self, tiny_tpch):
        view = tiny_tpch.joined_view()
        config = small_config(max_grouping_distinct=3)
        for name in eligible_grouping_columns(view, config):
            assert view.column(name).distinct_count() <= 3


class TestGeneration:
    def test_query_count(self, tiny_tpch):
        workload = generate_workload(tiny_tpch, small_config())
        # 2 group counts x 1 predicate count x 2 fractions x 3 per combo.
        assert len(workload) == 12

    def test_parameters_recorded(self, tiny_tpch):
        workload = generate_workload(tiny_tpch, small_config())
        for wq in workload.queries:
            assert len(wq.query.group_by) == wq.n_group_columns
            assert wq.aggregate == "COUNT"

    def test_predicates_are_in_subsets(self, tiny_tpch):
        view = tiny_tpch.joined_view()
        workload = generate_workload(tiny_tpch, small_config())
        for wq in workload.queries:
            predicate = wq.query.where
            predicates = (
                predicate.operands if isinstance(predicate, And) else [predicate]
            )
            assert len(predicates) == wq.n_predicates
            for p in predicates:
                assert isinstance(p, InSet)
                domain = set(view.column(p.column).value_counts())
                assert set(p.values) <= domain
                expected = max(1, round(wq.subset_fraction * len(domain)))
                assert len(p.values) == min(expected, len(domain))

    def test_group_and_predicate_columns_disjoint(self, tiny_tpch):
        workload = generate_workload(tiny_tpch, small_config())
        for wq in workload.queries:
            grouped = set(wq.query.group_by)
            assert not grouped & wq.query.where.columns()

    def test_deterministic(self, tiny_tpch):
        a = generate_workload(tiny_tpch, small_config(seed=9))
        b = generate_workload(tiny_tpch, small_config(seed=9))
        assert [q.query for q in a.queries] == [q.query for q in b.queries]

    def test_different_seeds_differ(self, tiny_tpch):
        a = generate_workload(tiny_tpch, small_config(seed=1))
        b = generate_workload(tiny_tpch, small_config(seed=2))
        assert [q.query for q in a.queries] != [q.query for q in b.queries]

    def test_sum_uses_measures(self, tiny_tpch):
        config = small_config(
            aggregate="SUM",
            measure_columns=("l_quantity", "l_extendedprice"),
        )
        workload = generate_workload(tiny_tpch, config)
        for wq in workload.queries:
            agg = wq.query.aggregates[0]
            assert agg.func is AggFunc.SUM
            assert agg.column in config.measure_columns

    def test_queries_executable(self, tiny_tpch):
        workload = generate_workload(tiny_tpch, small_config())
        for wq in workload.queries[:4]:
            result = execute(tiny_tpch, wq.query)
            assert result.n_groups >= 0

    def test_too_few_columns_raises(self, flat_db):
        config = small_config(group_column_counts=(4,), predicate_counts=(2,))
        with pytest.raises(WorkloadError):
            generate_workload(flat_db, config)
