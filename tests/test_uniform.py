"""Tests for the uniform sampling baseline."""

import numpy as np
import pytest

from repro.baselines.uniform import UniformConfig, UniformSampling
from repro.engine.executor import execute
from repro.engine.expressions import AggFunc, AggregateSpec, Query
from repro.errors import RuntimePhaseError, SamplingError

COUNT = AggregateSpec(AggFunc.COUNT, alias="cnt")


class TestConfig:
    def test_requires_rates(self):
        with pytest.raises(SamplingError):
            UniformConfig(rates=())

    def test_rate_bounds(self):
        with pytest.raises(SamplingError):
            UniformConfig(rates=(1.5,))


class TestPreprocess:
    def test_builds_one_table_per_rate(self, flat_db):
        technique = UniformSampling(UniformConfig(rates=(0.01, 0.05)))
        report = technique.preprocess(flat_db)
        assert report.n_sample_tables == 2
        sizes = sorted(info.n_rows for info in technique.sample_tables())
        n = flat_db.fact_table.n_rows
        assert sizes == [round(0.01 * n), round(0.05 * n)]

    def test_requires_preprocess(self, flat_db):
        technique = UniformSampling()
        with pytest.raises(RuntimePhaseError):
            technique.answer(Query("flat", (COUNT,)))


class TestAnswer:
    def test_rate_matching_picks_closest(self, flat_db):
        technique = UniformSampling(UniformConfig(rates=(0.01, 0.05)))
        technique.preprocess(flat_db)
        answer = technique.answer(Query("flat", (COUNT,)), 0.045)
        n = flat_db.fact_table.n_rows
        assert answer.rows_scanned == round(0.05 * n)

    def test_total_count_estimate_near_truth(self, flat_db):
        technique = UniformSampling(UniformConfig(rates=(0.05,), seed=0))
        technique.preprocess(flat_db)
        answer = technique.answer(Query("flat", (COUNT,)))
        n = flat_db.fact_table.n_rows
        assert answer.value(()) == pytest.approx(n, rel=0.01)

    def test_group_estimates_unbiased_over_seeds(self, flat_db):
        query = Query("flat", (COUNT,), ("shape",))
        exact = execute(flat_db, query).as_dict()
        target = max(exact, key=exact.get)
        estimates = []
        for seed in range(30):
            technique = UniformSampling(
                UniformConfig(rates=(0.05,), seed=seed)
            )
            technique.preprocess(flat_db)
            answer = technique.answer(query)
            estimates.append(answer.value(target))
        assert np.mean(estimates) == pytest.approx(exact[target], rel=0.1)

    def test_never_marks_exact(self, flat_db):
        technique = UniformSampling(UniformConfig(rates=(0.5,)))
        technique.preprocess(flat_db)
        answer = technique.answer(Query("flat", (COUNT,), ("status",)))
        assert not answer.exact_groups()

    def test_sum_estimates(self, flat_db):
        technique = UniformSampling(UniformConfig(rates=(0.1,), seed=1))
        technique.preprocess(flat_db)
        query = Query(
            "flat", (AggregateSpec(AggFunc.SUM, "amount", alias="s"),)
        )
        answer = technique.answer(query)
        truth = execute(flat_db, query).rows[()][0]
        assert answer.value(()) == pytest.approx(truth, rel=0.5)

    def test_default_rate_piece_rows(self, flat_db):
        technique = UniformSampling(UniformConfig(rates=(0.02, 0.04)))
        technique.preprocess(flat_db)
        n = flat_db.fact_table.n_rows
        pieces = technique.choose_samples(Query("flat", (COUNT,)))
        assert sum(p.table.n_rows for p in pieces) == round(0.02 * n)
