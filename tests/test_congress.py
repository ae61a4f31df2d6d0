"""Tests for the basic congress baseline."""

import numpy as np
import pytest

from repro.baselines.congress import BasicCongress, CongressConfig
from repro.engine.executor import execute
from repro.engine.expressions import AggFunc, AggregateSpec, Query
from repro.errors import PreprocessingError, SamplingError

COUNT = AggregateSpec(AggFunc.COUNT, alias="cnt")


class TestConfig:
    def test_requires_rates(self):
        with pytest.raises(SamplingError):
            CongressConfig(rates=())

    def test_rate_bounds(self):
        with pytest.raises(SamplingError):
            CongressConfig(rates=(0.0,))


class TestAllocation:
    def test_max_of_house_and_senate(self):
        # Two strata: 90 rows and 10 rows, budget 10 rows.
        sizes = np.array([90.0, 10.0])
        targets = BasicCongress._allocate(sizes, 10.0)
        # Senate gives the small stratum at least as much as house would.
        house_small = 10.0 * 10.0 / 100.0  # = 1
        assert targets[1] > house_small
        # Budget approximately respected.
        assert targets.sum() == pytest.approx(10.0, rel=0.15)

    def test_targets_capped_at_sizes(self):
        sizes = np.array([2.0, 1000.0])
        targets = BasicCongress._allocate(sizes, 500.0)
        assert targets[0] <= 2.0
        assert targets[1] <= 1000.0

    def test_uniform_when_single_stratum(self):
        sizes = np.array([100.0])
        targets = BasicCongress._allocate(sizes, 10.0)
        assert targets[0] == pytest.approx(10.0)


class TestPreprocess:
    def test_strata_counted(self, flat_db):
        technique = BasicCongress(CongressConfig(rates=(0.05,)))
        report = technique.preprocess(flat_db)
        assert report.details["n_strata"] > 100
        assert set(report.details["columns"]) == {
            "color",
            "shape",
            "status",
            "city",
        }

    def test_budget_respected(self, flat_db):
        technique = BasicCongress(CongressConfig(rates=(0.05,), seed=1))
        report = technique.preprocess(flat_db)
        n = flat_db.fact_table.n_rows
        assert report.sample_rows == pytest.approx(0.05 * n, rel=0.25)

    def test_explicit_columns(self, flat_db):
        technique = BasicCongress(
            CongressConfig(rates=(0.05,), columns=("color",))
        )
        report = technique.preprocess(flat_db)
        assert report.details["columns"] == ["color"]
        assert report.details["n_strata"] == 40

    def test_no_columns_raises(self, flat_db):
        technique = BasicCongress(
            CongressConfig(rates=(0.05,), columns=("missing",))
        )
        with pytest.raises(PreprocessingError):
            technique.preprocess(flat_db)

    def test_weights_are_inverse_inclusion(self, flat_db):
        technique = BasicCongress(
            CongressConfig(rates=(0.1,), columns=("status",), seed=2)
        )
        technique.preprocess(flat_db)
        info = technique.sample_tables()[0]
        # Weighted row count reproduces the table size exactly per stratum.
        estimated = info.weights.sum()
        assert estimated == pytest.approx(flat_db.fact_table.n_rows, rel=1e-9)


class TestAnswer:
    def test_small_strata_get_boosted(self, flat_db):
        """Senate allocation covers rare values better than uniform would."""
        query = Query("flat", (COUNT,), ("status",))
        exact = execute(flat_db, query).as_dict()
        rare = min(exact, key=exact.get)
        hits = 0
        for seed in range(10):
            technique = BasicCongress(
                CongressConfig(rates=(0.02,), columns=("status",), seed=seed)
            )
            technique.preprocess(flat_db)
            answer = technique.answer(query)
            hits += rare in answer.groups
        assert hits >= 8

    def test_estimates_unbiased_over_seeds(self, flat_db):
        query = Query("flat", (COUNT,), ("shape",))
        exact = execute(flat_db, query).as_dict()
        target = max(exact, key=exact.get)
        estimates = []
        for seed in range(25):
            technique = BasicCongress(
                CongressConfig(rates=(0.05,), columns=("shape",), seed=seed)
            )
            technique.preprocess(flat_db)
            estimates.append(technique.answer(query).value(target))
        assert np.mean(estimates) == pytest.approx(exact[target], rel=0.1)

    def test_rate_matching(self, flat_db):
        technique = BasicCongress(CongressConfig(rates=(0.02, 0.1), seed=0))
        technique.preprocess(flat_db)
        low = technique.answer(Query("flat", (COUNT,)), 0.02)
        high = technique.answer(Query("flat", (COUNT,)), 0.1)
        assert high.rows_scanned > low.rows_scanned

    def test_piece_rows(self, flat_db):
        technique = BasicCongress(CongressConfig(rates=(0.05,)))
        technique.preprocess(flat_db)
        pieces = technique.choose_samples(Query("flat", (COUNT,)))
        assert sum(p.table.n_rows for p in pieces) > 0
