"""Tests for the matched-space experiment harness."""

import pytest

from repro.experiments.harness import (
    Contender,
    build_congress_contender,
    build_small_group_contender,
    build_uniform_contender,
    matched_rate,
    matched_rates,
    per_group_selectivity_of,
    run_experiment,
)
from repro.errors import ExperimentError
from repro.workload.generator import generate_workload
from repro.workload.spec import WorkloadConfig, WorkloadQuery
from repro.engine.expressions import AggFunc, AggregateSpec, Query


def make_wq(g):
    return WorkloadQuery(
        query=Query("t", (AggregateSpec(AggFunc.COUNT),), tuple(f"c{i}" for i in range(g))),
        n_group_columns=g,
        n_predicates=1,
        subset_fraction=0.1,
        aggregate="COUNT",
    )


class TestMatchedRates:
    def test_paper_formula(self):
        # r=1%, gamma=0.5, i grouping columns -> (1 + 0.5 i)%.
        assert matched_rate(make_wq(1), 0.01, 0.5) == pytest.approx(0.015)
        assert matched_rate(make_wq(4), 0.01, 0.5) == pytest.approx(0.03)

    def test_clamped_to_one(self):
        assert matched_rate(make_wq(4), 0.5, 0.5) == 1.0

    def test_rates_for_workload(self, tiny_tpch):
        workload = generate_workload(
            tiny_tpch,
            WorkloadConfig(
                group_column_counts=(1, 3),
                predicate_counts=(1,),
                subset_fractions=(0.1,),
                queries_per_combo=2,
            ),
        )
        rates = matched_rates(workload, 0.01, 0.5)
        assert rates == (0.015, 0.025)


class TestSelectivity:
    def test_average_group_fraction(self):
        counts = {("a",): 10, ("b",): 30}
        assert per_group_selectivity_of(counts, 1000) == pytest.approx(0.02)

    def test_empty(self):
        assert per_group_selectivity_of({}, 1000) == 0.0


@pytest.fixture(scope="module")
def small_workload(tiny_tpch):
    return generate_workload(
        tiny_tpch,
        WorkloadConfig(
            group_column_counts=(1, 2),
            predicate_counts=(1,),
            subset_fractions=(0.2,),
            queries_per_combo=2,
            seed=0,
        ),
    )


class TestRunExperiment:
    def test_records_per_query(self, tiny_tpch, small_workload):
        contenders = [
            build_small_group_contender(tiny_tpch, 0.05),
            build_uniform_contender(
                tiny_tpch, matched_rates(small_workload, 0.05, 0.5)
            ),
        ]
        result = run_experiment(
            tiny_tpch, small_workload, contenders, 0.05, 0.5, measure_time=True
        )
        assert len(result.records) == len(small_workload)
        for record in result.records:
            assert set(record.accuracies) == {"small_group", "uniform"}
            assert record.n_exact_groups >= 0
            assert record.exact_time > 0
            assert record.answer_times["uniform"] > 0
            assert record.rows_scanned["small_group"] > 0

    def test_series_and_means(self, tiny_tpch, small_workload):
        contenders = [build_small_group_contender(tiny_tpch, 0.05)]
        result = run_experiment(tiny_tpch, small_workload, contenders, 0.05, 0.5)
        series = result.series_by_group_columns("small_group", "rel_err")
        assert set(series) == {1, 2}
        mean_all = result.mean_metric("small_group", "rel_err")
        assert min(series.values()) <= mean_all <= max(series.values())
        only_g1 = result.mean_metric(
            "small_group",
            "rel_err",
            where=lambda r: r.workload_query.n_group_columns == 1,
        )
        assert only_g1 == pytest.approx(series[1])

    def test_duplicate_names_rejected(self, tiny_tpch, small_workload):
        contender = build_small_group_contender(tiny_tpch, 0.05)
        dup = Contender(name=contender.name, technique=contender.technique)
        with pytest.raises(ExperimentError):
            run_experiment(
                tiny_tpch, small_workload, [contender, dup], 0.05, 0.5
            )

    def test_no_contenders_rejected(self, tiny_tpch, small_workload):
        with pytest.raises(ExperimentError):
            run_experiment(tiny_tpch, small_workload, [], 0.05, 0.5)

    def test_reports_recorded(self, tiny_tpch, small_workload):
        contenders = [
            build_small_group_contender(tiny_tpch, 0.05),
            build_congress_contender(tiny_tpch, (0.05,)),
        ]
        result = run_experiment(tiny_tpch, small_workload, contenders, 0.05, 0.5)
        assert set(result.reports) == {"small_group", "basic_congress"}
        assert result.reports["basic_congress"].details["n_strata"] > 0

    def test_mean_speedup_nan_without_timing(self, tiny_tpch, small_workload):
        contenders = [build_small_group_contender(tiny_tpch, 0.05)]
        result = run_experiment(tiny_tpch, small_workload, contenders, 0.05, 0.5)
        assert result.mean_speedup("small_group") != result.mean_speedup(
            "small_group"
        )  # NaN
