"""Basic congress (congressional sampling) baseline [2].

Congressional sampling builds a single stratified sample meant to serve
*all* group-by queries at once.  The *basic congress* variant — the one
the paper could run on a many-column database — considers the grouping on
the full set of candidate columns jointly:

* **house**: allocate sample space proportionally to stratum size
  (i.e. a uniform sample);
* **senate**: allocate sample space equally among the strata of the
  all-columns grouping;
* **basic congress**: give each stratum the *max* of its house and senate
  allocations, rescaled to the space budget.

Each sampled row carries weight ``stratum_size / stratum_sample_size``.
With many candidate columns the joint grouping shatters the table into a
huge number of tiny strata (the paper observed ~166,000 for SALES) and
the allocation degenerates toward uniform — the behaviour Figure 8
demonstrates.

Like the uniform baseline, a family of budgets can be pre-built so the
harness can match per-query sample space.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from repro.core.interfaces import (
    AQPTechnique,
    PreprocessReport,
    SampleTableInfo,
    closest_rate,
)
from repro.core.rewriter import SamplePiece
from repro.engine.column import ColumnKind
from repro.engine.database import Database
from repro.engine.executor import dense_ids
from repro.engine.expressions import Query
from repro.engine.reservoir import as_generator
from repro.engine.table import Table
from repro.errors import PreprocessingError, SamplingError


@dataclass(frozen=True)
class CongressConfig:
    """Parameters of the basic congress baseline.

    Attributes
    ----------
    rates:
        Sample-space budgets (fractions of the database) to build samples
        for; one stratified sample per budget.
    columns:
        Candidate grouping columns (``None`` = all categorical columns).
    exclude_columns:
        Columns removed from the candidate set.
    max_distinct:
        Candidate columns with more distinct values are dropped.
    seed:
        RNG seed.
    """

    rates: tuple[float, ...] = (0.01,)
    columns: tuple[str, ...] | None = None
    exclude_columns: tuple[str, ...] = ()
    max_distinct: int = 5000
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.rates:
            raise SamplingError("at least one budget rate is required")
        for rate in self.rates:
            if not 0.0 < rate <= 1.0:
                raise SamplingError(f"rate must be in (0, 1], got {rate}")


@dataclass
class _StratifiedSample:
    """One stratified sample with exact and float HT weights.

    ``weights`` holds the exact rational Horvitz–Thompson weights
    (``Fraction`` objects: ``stratum_size / realized_count`` reconstructs
    the stratum size *exactly*, which no float64 weight can guarantee);
    ``weights_float`` is the correctly-rounded float64 twin used by the
    vectorised execution paths.
    """

    table: Table
    weights: np.ndarray
    variance_weights: np.ndarray
    weights_float: np.ndarray


class BasicCongress(AQPTechnique):
    """Basic congress: house ∪ senate stratified sampling."""

    name = "basic_congress"

    def __init__(self, config: CongressConfig | None = None) -> None:
        super().__init__()
        self.config = config or CongressConfig()
        self._n_strata = 0

    def candidate_columns(self, view: Table) -> list[str]:
        """Categorical columns considered for the joint grouping."""
        if self.config.columns is not None:
            return [c for c in self.config.columns if view.has_column(c)]
        excluded = set(self.config.exclude_columns)
        return [
            c
            for c in view.column_names
            if c not in excluded
            and view.column(c).kind is ColumnKind.STRING
            and view.column(c).distinct_count() <= self.config.max_distinct
        ]

    def preprocess(self, db: Database) -> PreprocessReport:
        """Stratify on all candidate columns and draw per-budget samples."""
        start = time.perf_counter()
        view = db.joined_view()
        columns = self.candidate_columns(view)
        if not columns:
            raise PreprocessingError("no candidate grouping columns")
        code_arrays = [view.column(c).data for c in columns]
        strata, n_strata = dense_ids(code_arrays)
        sizes = np.bincount(strata, minlength=n_strata).astype(np.float64)
        self._n_strata = n_strata
        rng = as_generator(self.config.seed)
        n = view.n_rows
        samples = {}
        for rate in self.config.rates:
            budget = max(1.0, rate * n)
            targets = self._targets(
                view, columns, strata, sizes, budget
            )
            samples[rate] = self._draw(view, strata, sizes, targets, rng, rate)
        self.samples = samples
        elapsed = time.perf_counter() - start
        return self._report(
            db,
            elapsed,
            details=dict(self._details(), n_strata=n_strata, columns=columns),
        )

    def _targets(
        self,
        view: Table,
        columns: list[str],
        strata: np.ndarray,
        sizes: np.ndarray,
        budget: float,
    ) -> np.ndarray:
        """Per-(finest-)stratum expected sample sizes (variant hook)."""
        return self._allocate(sizes, budget)

    def _details(self) -> dict:
        """Variant-specific report fields."""
        return {}

    @staticmethod
    def _allocate(sizes: np.ndarray, budget: float) -> np.ndarray:
        """Per-stratum expected sample sizes: max(house, senate), rescaled.

        The max-of-allocations vector is rescaled to the budget and capped
        at the stratum sizes, iterating a few times so the cap does not
        leave budget unused.
        """
        n = sizes.sum()
        n_strata = len(sizes)
        house = sizes * (budget / n)
        senate = np.full(n_strata, budget / n_strata)
        expected = np.maximum(house, senate)
        for _ in range(4):
            total = expected.sum()
            if total <= 0:
                break
            expected = np.minimum(expected * (budget / total), sizes)
        return expected

    @staticmethod
    def _draw(
        view: Table,
        strata: np.ndarray,
        sizes: np.ndarray,
        targets: np.ndarray,
        rng: np.random.Generator,
        rate: float,
    ) -> _StratifiedSample:
        """Draw the per-stratum sample via randomised rounding.

        Each stratum's target ``e`` yields ``floor(e) + Bernoulli(frac(e))``
        rows sampled without replacement.  Horvitz–Thompson weights are
        derived from the *realized* per-stratum sampled counts and kept as
        exact rationals, so ``weight * realized_count`` reconstructs the
        stratum size exactly.
        """
        counts = np.floor(targets).astype(np.int64)
        counts += (rng.random(len(targets)) < (targets - counts)).astype(np.int64)
        counts = np.minimum(counts, sizes.astype(np.int64))
        # Random order within each stratum, then keep the first k_s rows.
        order = np.lexsort((rng.random(strata.size), strata))
        sorted_strata = strata[order]
        boundaries = np.flatnonzero(
            np.concatenate(([True], sorted_strata[1:] != sorted_strata[:-1]))
        )
        occurrence = np.arange(strata.size) - np.repeat(
            boundaries, np.diff(np.append(boundaries, strata.size))
        )
        keep = occurrence < counts[sorted_strata]
        chosen = np.sort(order[keep])
        chosen_strata = strata[chosen]
        realized = np.bincount(chosen_strata, minlength=sizes.size)
        # One exact rational weight per stratum, shared across its rows.
        stratum_weight = np.empty(sizes.size, dtype=object)
        for s in range(sizes.size):
            stratum_weight[s] = (
                Fraction(int(round(sizes[s])), int(realized[s]))
                if realized[s] > 0
                else Fraction(0)
            )
        weights = stratum_weight[chosen_strata]
        realized_f = realized.astype(np.float64)
        weights_float = (
            sizes[chosen_strata] / realized_f[chosen_strata]
            if chosen.size
            else np.empty(0, dtype=np.float64)
        )
        inclusion = (
            realized_f[chosen_strata] / sizes[chosen_strata]
            if chosen.size
            else np.empty(0, dtype=np.float64)
        )
        variance_weights = (1.0 - inclusion) * weights_float * weights_float
        name = f"congress_{rate:.6f}".rstrip("0").rstrip(".")
        return _StratifiedSample(
            table=view.take(chosen).rename(name),
            weights=weights,
            variance_weights=variance_weights,
            weights_float=weights_float,
        )

    def sample_tables(self) -> list[SampleTableInfo]:
        """One stratified sample table per budget."""
        return [
            SampleTableInfo(
                table=s.table,
                kind="stratified",
                rate=rate,
                weights=s.weights_float,
            )
            for rate, s in self.samples.items()
        ]

    def plan(
        self, samples: dict, query: Query, rate: float | None = None
    ) -> list[SamplePiece]:
        """One piece over the sample whose budget is closest to ``rate``."""
        sample = samples[closest_rate(list(samples), rate)]
        piece = SamplePiece(
            table=sample.table,
            query=query.with_table(sample.table.name),
            weights=sample.weights_float,
            variance_weights=sample.variance_weights,
            counts_as_exact=False,
            description=f"{sample.table.name} ({self._n_strata} strata)",
        )
        return [piece]


class FullCongress(BasicCongress):
    """The full congress algorithm of [2].

    For *every* grouping ``G`` over subsets of the candidate columns —
    including the empty grouping (the *house*, i.e. a uniform sample) —
    each tuple's ideal inclusion probability under ``G`` divides the
    budget equally among ``G``'s groups and then equally among each
    group's tuples.  A tuple's final allocation is the **maximum** over
    all groupings, rescaled to the space budget.

    The number of groupings is ``2^k`` for ``k`` candidate columns, which
    is exactly why the paper could not run full congress on its
    245-column SALES database and fell back to basic congress; the
    ``max_subset_columns`` guard enforces the same reality here, and the
    preprocessing-time blowup is demonstrated in the benchmarks.
    """

    name = "congress"

    #: Refuse to enumerate more than 2^this groupings.
    DEFAULT_MAX_SUBSET_COLUMNS = 12

    def __init__(
        self,
        config: CongressConfig | None = None,
        max_subset_columns: int | None = None,
    ) -> None:
        super().__init__(config)
        self.max_subset_columns = (
            max_subset_columns
            if max_subset_columns is not None
            else self.DEFAULT_MAX_SUBSET_COLUMNS
        )
        self._n_groupings = 0
        self._subset_cache: list[tuple[np.ndarray, int]] | None = None

    def _targets(
        self,
        view: Table,
        columns: list[str],
        strata: np.ndarray,
        sizes: np.ndarray,
        budget: float,
    ) -> np.ndarray:
        from itertools import combinations

        k = len(columns)
        if k > self.max_subset_columns:
            raise PreprocessingError(
                f"full congress over {k} columns needs 2^{k} groupings; "
                f"the cap is {self.max_subset_columns} columns — use "
                "BasicCongress for wide schemas (as the paper did)"
            )
        n = view.n_rows
        n_strata = len(sizes)
        # Representative row per finest stratum: every grouping G is a
        # coarsening of the finest grouping, so a tuple's G-stratum is
        # determined by its finest stratum.
        _, rep_rows = np.unique(strata, return_index=True)
        if self._subset_cache is None:
            cache: list[tuple[np.ndarray, int]] = []
            for r in range(1, k + 1):
                for combo in combinations(range(k), r):
                    ids_g, n_g = dense_ids(
                        [view.column(columns[i]).data for i in combo]
                    )
                    group_sizes = np.bincount(ids_g, minlength=n_g)
                    # Size of each finest stratum's G-group.
                    cache.append((group_sizes[ids_g[rep_rows]], n_g))
            self._subset_cache = cache
        per_tuple = np.full(n_strata, budget / n)  # the house
        for group_sizes_at_rep, n_g in self._subset_cache:
            per_tuple = np.maximum(
                per_tuple, budget / (n_g * group_sizes_at_rep)
            )
        self._n_groupings = len(self._subset_cache) + 1
        expected = np.minimum(per_tuple, 1.0) * sizes
        for _ in range(4):
            total = expected.sum()
            if total <= 0:
                break
            expected = np.minimum(expected * (budget / total), sizes)
        return expected

    def _details(self) -> dict:
        return {"n_groupings": self._n_groupings}
