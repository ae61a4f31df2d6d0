"""Tests for outlier indexing, including optimality of outlier selection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.outlier import (
    OutlierConfig,
    OutlierIndexing,
    select_outlier_indices,
)
from repro.engine.executor import execute
from repro.engine.expressions import AggFunc, AggregateSpec, Query
from repro.errors import SamplingError

SUM_AMOUNT = AggregateSpec(AggFunc.SUM, "amount", alias="total")
COUNT = AggregateSpec(AggFunc.COUNT, alias="cnt")


class TestSelectOutliers:
    def test_empty_and_degenerate(self):
        assert len(select_outlier_indices(np.array([]), 3)) == 0
        assert len(select_outlier_indices(np.array([1.0, 2.0]), 0)) == 0
        assert select_outlier_indices(np.array([1.0, 2.0]), 5).tolist() == [0, 1]

    def test_negative_k_rejected(self):
        with pytest.raises(SamplingError):
            select_outlier_indices(np.array([1.0]), -1)

    def test_picks_heavy_tail(self):
        values = np.array([1.0, 2.0, 1.5, 1000.0, 2.5, 900.0])
        chosen = select_outlier_indices(values, 2)
        assert set(chosen.tolist()) == {3, 5}

    def test_picks_both_tails_when_symmetric(self):
        values = np.array([-100.0, 0.0, 0.1, -0.1, 100.0])
        chosen = set(select_outlier_indices(values, 2).tolist())
        assert chosen == {0, 4}

    def test_removal_reduces_variance(self):
        rng = np.random.default_rng(0)
        values = rng.lognormal(3, 1.5, 500)
        chosen = select_outlier_indices(values, 25)
        keep = np.ones(500, dtype=bool)
        keep[chosen] = False
        assert values[keep].var() < values.var() * 0.5

    @given(
        values=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False, width=32),
            min_size=1,
            max_size=12,
        ),
        k=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_optimal_among_all_subsets(self, values, k):
        """The window algorithm matches brute-force over all k-subsets."""
        from itertools import combinations

        values = np.asarray([float(v) for v in values])
        n = len(values)
        if k >= n:
            return
        chosen = select_outlier_indices(values, k)
        keep = np.ones(n, dtype=bool)
        keep[chosen] = False
        achieved = values[keep].var()
        best = min(
            np.delete(values, list(combo)).var()
            for combo in combinations(range(n), k)
        )
        assert achieved <= best + 1e-9


class TestConfig:
    def test_requires_measures(self):
        with pytest.raises(SamplingError):
            OutlierConfig(rates=(0.01,))

    def test_share_bounds(self):
        with pytest.raises(SamplingError):
            OutlierConfig(rates=(0.01,), measures=("m",), outlier_share=0.0)


class TestTechnique:
    def test_partitions_per_measure_and_rate(self, flat_db):
        technique = OutlierIndexing(
            OutlierConfig(rates=(0.02, 0.05), measures=("amount", "qty"))
        )
        report = technique.preprocess(flat_db)
        # Two tables (outliers + remainder) per (rate, measure).
        assert report.n_sample_tables == 8

    def test_missing_measure_raises(self, flat_db):
        technique = OutlierIndexing(
            OutlierConfig(rates=(0.02,), measures=("nope",))
        )
        from repro.errors import PreprocessingError

        with pytest.raises(PreprocessingError):
            technique.preprocess(flat_db)

    def test_budget_split(self, flat_db):
        technique = OutlierIndexing(
            OutlierConfig(
                rates=(0.05,), measures=("amount",), outlier_share=0.4
            )
        )
        technique.preprocess(flat_db)
        n = flat_db.fact_table.n_rows
        pieces = technique.choose_samples(Query("flat", (SUM_AMOUNT,)))
        rows = sum(p.table.n_rows for p in pieces)
        assert rows == pytest.approx(0.05 * n, rel=0.05)

    def test_sum_total_estimate(self, flat_db):
        technique = OutlierIndexing(
            OutlierConfig(rates=(0.05,), measures=("amount",), seed=0)
        )
        technique.preprocess(flat_db)
        query = Query("flat", (SUM_AMOUNT,))
        truth = execute(flat_db, query).rows[()][0]
        answer = technique.answer(query)
        assert answer.value(()) == pytest.approx(truth, rel=0.25)

    def test_outlier_beats_uniform_variance_on_skewed_sum(self, flat_db):
        """Repeated estimates: outlier indexing's spread is smaller."""
        from repro.baselines.uniform import UniformConfig, UniformSampling

        query = Query("flat", (SUM_AMOUNT,))
        truth = execute(flat_db, query).rows[()][0]
        outlier_errs, uniform_errs = [], []
        for seed in range(15):
            o = OutlierIndexing(
                OutlierConfig(rates=(0.03,), measures=("amount",), seed=seed)
            )
            o.preprocess(flat_db)
            outlier_errs.append(abs(o.answer(query).value(()) - truth) / truth)
            u = UniformSampling(UniformConfig(rates=(0.03,), seed=seed))
            u.preprocess(flat_db)
            uniform_errs.append(abs(u.answer(query).value(()) - truth) / truth)
        assert np.mean(outlier_errs) < np.mean(uniform_errs)

    def test_count_queries_still_unbiased(self, flat_db):
        technique = OutlierIndexing(
            OutlierConfig(rates=(0.05,), measures=("amount",), seed=3)
        )
        technique.preprocess(flat_db)
        answer = technique.answer(Query("flat", (COUNT,)))
        n = flat_db.fact_table.n_rows
        assert answer.value(()) == pytest.approx(n, rel=0.1)

    def test_measure_matching(self, flat_db):
        technique = OutlierIndexing(
            OutlierConfig(rates=(0.05,), measures=("amount", "qty"))
        )
        technique.preprocess(flat_db)
        answer = technique.answer(
            Query("flat", (AggregateSpec(AggFunc.SUM, "qty", alias="q"),))
        )
        assert "qty" in answer.pieces[0]

    def test_groups_never_marked_exact(self, flat_db):
        technique = OutlierIndexing(
            OutlierConfig(rates=(0.05,), measures=("amount",))
        )
        technique.preprocess(flat_db)
        answer = technique.answer(Query("flat", (COUNT,), ("status",)))
        assert not answer.exact_groups()
