"""Tests for the technique contract every AQP technique implements."""

import time

import numpy as np
import pytest

from repro.core.interfaces import AQPTechnique, SampleTableInfo, closest_rate
from repro.core.rewriter import SamplePiece
from repro.engine.expressions import AggFunc, AggregateSpec, Query
from repro.engine.reservoir import uniform_sample_indices
from repro.errors import RuntimePhaseError

COUNT = AggregateSpec(AggFunc.COUNT, alias="cnt")


class ToyPolicy(AQPTechnique):
    """Minimal concrete policy: one uniform sample, no metadata."""

    name = "toy"

    def __init__(self, rate=0.2):
        super().__init__()
        self.rate = rate
        self.strata_seen = None
        self._infos = []

    def preprocess(self, db):
        start = time.perf_counter()
        view = db.joined_view()
        self.strata_seen = view.n_rows
        k = max(1, round(self.rate * view.n_rows))
        indices = uniform_sample_indices(view.n_rows, k, rng=0)
        self._sample = view.take(indices).rename("toy_sample")
        self._actual_rate = k / view.n_rows
        self._infos = [
            SampleTableInfo(
                table=self._sample, kind="uniform", rate=self._actual_rate
            )
        ]
        self.samples = self._sample
        elapsed = time.perf_counter() - start
        return self._report(db, elapsed, details={"note": "toy"})

    def sample_tables(self):
        return list(self._infos)

    def plan(self, samples, query, rate=None):
        scale = 1.0 / self._actual_rate
        return [
            SamplePiece(
                table=samples,
                query=query.with_table("toy_sample"),
                rate=self._actual_rate,
                variance_weights=np.full(
                    samples.n_rows, (1 - self._actual_rate) * scale**2
                ),
                counts_as_exact=False,
            )
        ]


class TestPipeline:
    def test_preprocess_runs_both_steps(self, flat_db):
        policy = ToyPolicy()
        report = policy.preprocess(flat_db)
        assert policy.strata_seen == flat_db.fact_table.n_rows
        assert report.technique == "toy"
        assert report.details == {"note": "toy"}
        assert report.n_sample_tables == 1
        assert report.wall_time_seconds >= 0

    def test_answer_before_preprocess_rejected(self, flat_db):
        with pytest.raises(RuntimePhaseError):
            ToyPolicy().answer(Query("flat", (COUNT,)))

    def test_answer_combines_pieces(self, flat_db):
        policy = ToyPolicy()
        policy.preprocess(flat_db)
        answer = policy.answer(Query("flat", (COUNT,)))
        n = flat_db.fact_table.n_rows
        assert answer.value(()) == pytest.approx(n, rel=0.05)
        assert answer.technique == "toy"

    def test_sample_tables_listed(self, flat_db):
        policy = ToyPolicy()
        policy.preprocess(flat_db)
        infos = policy.sample_tables()
        assert len(infos) == 1
        assert infos[0].kind == "uniform"


class TestClosestRate:
    def test_none_picks_first(self):
        assert closest_rate([0.04, 0.01], None) == 0.04

    def test_picks_nearest_and_earlier_on_ties(self):
        assert closest_rate([0.01, 0.05], 0.045) == 0.05
        assert closest_rate([0.25, 0.75], 0.5) == 0.25

    def test_no_rates_rejected(self):
        with pytest.raises(RuntimePhaseError):
            closest_rate([], 0.01)
