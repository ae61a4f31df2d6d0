"""Outlier indexing baseline [9].

For SUM aggregates over a skewed measure, a uniform sample has huge
variance because a few extreme rows dominate the sum.  Outlier indexing
splits the table into an *outlier set* — the ``k`` rows whose removal
minimises the variance of the remainder — stored completely, and a
uniform sample of the remaining rows.  A query's answer is the exact
aggregate over the (predicate-filtered) outliers plus the scaled estimate
from the remainder sample.

The variance-minimising size-``k`` removal set of a one-dimensional
distribution is always taken from the two tails: remove ``d`` rows from
the bottom and ``k − d`` from the top for the best ``d``
(:func:`select_outlier_indices` scans all ``d`` with prefix sums).

One outlier partition is built per configured measure column (mirroring
[9], which builds one index per aggregate expression in a pre-specified
list); at runtime the partition matching the query's SUM column is used,
falling back to the first for COUNT queries (where the partition is
harmless: the combination remains unbiased).
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
from repro.engine.expressions import AggFunc, Query
from repro.engine.reservoir import as_generator, uniform_sample_indices
from repro.engine.table import Table
from repro.errors import PreprocessingError, SamplingError


def select_outlier_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` values whose removal minimises the remainder's
    variance.

    The optimal removal set under variance minimisation consists of the
    ``d`` smallest and ``k − d`` largest values for some ``d``; all
    ``k + 1`` splits are evaluated with prefix sums in O(n log n).
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if k < 0:
        raise SamplingError(f"outlier count must be >= 0, got {k}")
    if k == 0 or n == 0:
        return np.empty(0, dtype=np.int64)
    if k >= n:
        return np.arange(n, dtype=np.int64)
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    prefix = np.concatenate(([0.0], np.cumsum(sorted_values)))
    prefix_sq = np.concatenate(([0.0], np.cumsum(sorted_values * sorted_values)))
    m = n - k
    d = np.arange(k + 1)
    window_sum = prefix[d + m] - prefix[d]
    window_sq = prefix_sq[d + m] - prefix_sq[d]
    variance = window_sq / m - (window_sum / m) ** 2
    best_d = int(np.argmin(variance))
    removed = np.concatenate(
        [order[:best_d], order[best_d + m :]]
    )
    return np.sort(removed.astype(np.int64))


@dataclass(frozen=True)
class OutlierConfig:
    """Parameters of the outlier indexing baseline.

    Attributes
    ----------
    rates:
        Total sample-space budgets (fractions of the database); each
        budget is split between the outlier index and the remainder
        sample.
    outlier_share:
        Fraction of each budget devoted to the outlier index.
    measures:
        Measure columns to build outlier partitions for (at least one).
    seed:
        RNG seed.
    """

    rates: tuple[float, ...] = (0.01,)
    outlier_share: float = 1.0 / 3.0
    measures: tuple[str, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.rates:
            raise SamplingError("at least one budget rate is required")
        for rate in self.rates:
            if not 0.0 < rate <= 1.0:
                raise SamplingError(f"rate must be in (0, 1], got {rate}")
        if not 0.0 < self.outlier_share < 1.0:
            raise SamplingError(
                f"outlier share must be in (0, 1), got {self.outlier_share}"
            )
        if not self.measures:
            raise SamplingError("outlier indexing requires measure columns")


@dataclass
class _Partition:
    outliers: Table
    remainder: Table
    remainder_rate: float


class OutlierIndexing(AQPTechnique):
    """Outlier indexing: exact outliers + uniform sample of the rest."""

    name = "outlier_index"

    def __init__(self, config: OutlierConfig) -> None:
        super().__init__()
        self.config = config

    def preprocess(self, db: Database) -> PreprocessReport:
        """Build per-(budget, measure) outlier partitions."""
        start = time.perf_counter()
        view = db.joined_view()
        rng = as_generator(self.config.seed)
        n = view.n_rows
        samples = {}
        for measure in self.config.measures:
            if not view.has_column(measure):
                raise PreprocessingError(f"no measure column {measure!r}")
            values = view.column(measure).numeric_values()
            for rate in self.config.rates:
                budget = max(2, round(rate * n))
                k = max(1, round(self.config.outlier_share * budget))
                outlier_idx = select_outlier_indices(values, k)
                keep = np.ones(n, dtype=bool)
                keep[outlier_idx] = False
                rest_idx = np.flatnonzero(keep)
                sample_size = max(1, budget - outlier_idx.size)
                sampled = rest_idx[
                    uniform_sample_indices(rest_idx.size, sample_size, rng)
                ]
                remainder_rate = (
                    sampled.size / rest_idx.size if rest_idx.size else 1.0
                )
                suffix = f"{measure}_{rate:.6f}".rstrip("0").rstrip(".")
                samples[(rate, measure)] = _Partition(
                    outliers=view.take(outlier_idx).rename(f"outliers_{suffix}"),
                    remainder=view.take(sampled).rename(f"outrest_{suffix}"),
                    remainder_rate=remainder_rate,
                )
        self.samples = samples
        elapsed = time.perf_counter() - start
        return self._report(
            db, elapsed, details={"measures": list(self.config.measures)}
        )

    def sample_tables(self) -> list[SampleTableInfo]:
        """Outlier and remainder tables for every (budget, measure)."""
        infos = []
        for partition in self.samples.values():
            infos.append(
                SampleTableInfo(table=partition.outliers, kind="outlier", rate=1.0)
            )
            infos.append(
                SampleTableInfo(
                    table=partition.remainder,
                    kind="uniform",
                    rate=partition.remainder_rate,
                )
            )
        return infos

    def _pick(self, query: Query, rate: float | None) -> _Partition:
        measure = None
        for agg in query.aggregates:
            if agg.func is AggFunc.SUM and agg.column in self.config.measures:
                measure = agg.column
                break
        if measure is None:
            measure = self.config.measures[0]
        rates = sorted({r for r, m in self.samples if m == measure})
        return self.samples[(closest_rate(rates, rate), measure)]

    def choose_samples(
        self, query: Query, rate: float | None = None
    ) -> list[SamplePiece]:
        """Exact outlier piece plus the scaled remainder piece."""
        partition = self._pick(query, rate)
        scale = 1.0 / partition.remainder_rate
        return [
            SamplePiece(
                table=partition.outliers,
                query=query.with_table(partition.outliers.name),
                rate=1.0,
                zero_variance=True,
                counts_as_exact=False,
                description=f"{partition.outliers.name} (exact outliers)",
            ),
            SamplePiece(
                table=partition.remainder,
                query=query.with_table(partition.remainder.name),
                rate=partition.remainder_rate,
                variance_weights=np.full(
                    partition.remainder.n_rows,
                    (1.0 - partition.remainder_rate) * scale * scale,
                ),
                counts_as_exact=False,
                description=(
                    f"{partition.remainder.name} "
                    f"(rate {partition.remainder_rate:.4f})"
                ),
            ),
        ]
