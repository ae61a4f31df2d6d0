"""Workload-based self-tuning sampling (in the spirit of Icicles [15]).

The paper's §5 footnote: "we do not present comparisons against other
sampling-based AQP systems such as [10, 15] as these methods require the
presence of workloads."  This library *has* a workload generator, so the
deferred comparison can be run: this baseline biases its sample toward
tuples frequently touched by a training workload — each tuple's
inclusion probability mixes a uniform floor with a share proportional to
how many training queries select the tuple — and answers queries with
Horvitz–Thompson weights.

The expected behaviour (and the reason the paper's authors favoured
syntax-driven dynamic selection): strong accuracy on queries distributed
like the training workload, degradation on ad hoc queries that touch
regions the workload never did.  The `beyond-paper` benchmark
demonstrates both halves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.interfaces import (
    AQPTechnique,
    PreprocessReport,
    SampleTableInfo,
    closest_rate,
)
from repro.core.rewriter import SamplePiece
from repro.engine.database import Database
from repro.engine.expressions import Query
from repro.engine.reservoir import as_generator, weighted_sample_indices
from repro.engine.table import Table
from repro.errors import PreprocessingError, SamplingError
from repro.workload.spec import Workload


@dataclass(frozen=True)
class IciclesConfig:
    """Parameters of the workload-based sampling baseline.

    Attributes
    ----------
    rates:
        Sample-space budgets (fractions of the database).
    uniform_mix:
        Fraction of each budget allocated as a uniform floor, so tuples
        never touched by the training workload still have non-zero
        inclusion probability (keeping every estimator defined and
        unbiased).
    seed:
        RNG seed.
    """

    rates: tuple[float, ...] = (0.01,)
    uniform_mix: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.rates:
            raise SamplingError("at least one budget rate is required")
        for rate in self.rates:
            if not 0.0 < rate <= 1.0:
                raise SamplingError(f"rate must be in (0, 1], got {rate}")
        if not 0.0 < self.uniform_mix <= 1.0:
            raise SamplingError(
                f"uniform mix must be in (0, 1], got {self.uniform_mix}"
            )


@dataclass
class _WeightedSample:
    table: Table
    weights: np.ndarray
    variance_weights: np.ndarray


class IciclesSampling(AQPTechnique):
    """Self-tuning biased sampling driven by a training workload."""

    name = "icicles"

    def __init__(
        self, workload: Workload, config: IciclesConfig | None = None
    ) -> None:
        super().__init__()
        if not workload.queries:
            raise PreprocessingError(
                "icicles requires a non-empty training workload"
            )
        self.workload = workload
        self.config = config or IciclesConfig()
        self._touch_fraction = 0.0

    def preprocess(self, db: Database) -> PreprocessReport:
        """Count per-tuple workload touches and draw biased samples."""
        start = time.perf_counter()
        view = db.joined_view()
        n = view.n_rows
        hits = np.zeros(n, dtype=np.float64)
        for wq in self.workload.queries:
            predicate = wq.query.where
            if predicate is None:
                hits += 1.0
            else:
                hits += predicate.evaluate(view)
        total_hits = float(hits.sum())
        self._touch_fraction = float((hits > 0).mean())
        rng = as_generator(self.config.seed)
        samples = {}
        for rate in self.config.rates:
            budget = max(1.0, rate * n)
            expected = np.full(n, self.config.uniform_mix * budget / n)
            if total_hits > 0:
                expected += (
                    (1.0 - self.config.uniform_mix) * budget * hits / total_hits
                )
            probabilities = np.minimum(expected, 1.0)
            # Rescale after capping so the budget is actually spent.
            for _ in range(4):
                total = probabilities.sum()
                if total <= 0:
                    break
                probabilities = np.minimum(
                    probabilities * (budget / total), 1.0
                )
            chosen = weighted_sample_indices(probabilities, rng)
            weights = 1.0 / probabilities[chosen]
            variance_weights = (
                1.0 - probabilities[chosen]
            ) * weights * weights
            name = f"icicles_{rate:.6f}".rstrip("0").rstrip(".")
            samples[rate] = _WeightedSample(
                table=view.take(chosen).rename(name),
                weights=weights,
                variance_weights=variance_weights,
            )
        self.samples = samples
        elapsed = time.perf_counter() - start
        return self._report(
            db,
            elapsed,
            details={
                "training_queries": len(self.workload),
                "touched_fraction": self._touch_fraction,
            },
        )

    def sample_tables(self) -> list[SampleTableInfo]:
        """One weighted sample table per budget."""
        return [
            SampleTableInfo(
                table=s.table, kind="workload", rate=rate, weights=s.weights
            )
            for rate, s in self.samples.items()
        ]

    def plan(
        self, samples: dict, query: Query, rate: float | None = None
    ) -> list[SamplePiece]:
        """One Horvitz–Thompson-weighted piece over the closest budget."""
        sample = samples[closest_rate(list(samples), rate)]
        piece = SamplePiece(
            table=sample.table,
            query=query.with_table(sample.table.name),
            weights=sample.weights,
            variance_weights=sample.variance_weights,
            counts_as_exact=False,
            description=f"{sample.table.name} (workload-biased)",
        )
        return [piece]
