"""Matched-sample-space experiment harness (Section 5.2.3).

The paper's accuracy experiments grant every technique the same amount of
sample table space *per query at runtime*: a query with ``i`` grouping
columns answered by small group sampling (base rate ``r``, allocation
ratio ``γ``) touches up to ``(1 + γ·i)·r·N`` rows, so its competitors use
samples of rate ``(1 + γ·i)·r``.  The harness

* computes the matched rates a workload needs,
* pre-processes each contender with the right rate family,
* executes every workload query exactly and approximately,
* scores each answer with the Section 4.3 metrics, and
* aggregates means by any binning (number of grouping columns, per-group
  selectivity, ...).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.congress import BasicCongress, CongressConfig
from repro.baselines.hybrid import HybridConfig, SmallGroupWithOutlier
from repro.baselines.outlier import OutlierConfig, OutlierIndexing
from repro.baselines.uniform import UniformConfig, UniformSampling
from repro.core.interfaces import AQPTechnique, PreprocessReport
from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.engine.cache import get_cache
from repro.engine.database import Database
from repro.engine.executor import execute
from repro.errors import ExperimentError
from repro.metrics.error import QueryAccuracy, score
from repro.workload.spec import Workload, WorkloadQuery

@dataclass
class Contender:
    """One technique entered into an experiment.

    Each workload query is answered by ``technique.answer(query, rate)``
    with the query's matched rate.
    """

    name: str
    technique: AQPTechnique
    report: PreprocessReport | None = None


@dataclass
class QueryRecord:
    """Everything measured for one workload query."""

    workload_query: WorkloadQuery
    matched_rate: float
    per_group_selectivity: float
    n_exact_groups: int
    accuracies: dict[str, QueryAccuracy] = field(default_factory=dict)
    answer_times: dict[str, float] = field(default_factory=dict)
    exact_time: float = 0.0
    rows_scanned: dict[str, int] = field(default_factory=dict)


@dataclass
class ExperimentResult:
    """All per-query records of one experiment, with aggregation helpers."""

    records: list[QueryRecord]
    technique_names: tuple[str, ...]
    reports: dict[str, PreprocessReport] = field(default_factory=dict)

    def mean_metric(
        self,
        technique: str,
        metric: str,
        where: Callable[[QueryRecord], bool] | None = None,
    ) -> float:
        """Mean of one metric (``rel_err``/``pct_groups``/``sq_rel_err``)."""
        values = [
            getattr(r.accuracies[technique], metric)
            for r in self.records
            if (where is None or where(r)) and technique in r.accuracies
        ]
        if not values:
            return float("nan")
        return float(np.mean(values))

    def series_by(
        self,
        key: Callable[[QueryRecord], object],
        technique: str,
        metric: str,
    ) -> dict[object, float]:
        """Mean metric per bin, binned by ``key``."""
        bins: dict[object, list[float]] = {}
        for record in self.records:
            if technique not in record.accuracies:
                continue
            bins.setdefault(key(record), []).append(
                getattr(record.accuracies[technique], metric)
            )
        return {k: float(np.mean(v)) for k, v in sorted(bins.items(), key=lambda i: str(i[0]))}

    def series_by_group_columns(
        self, technique: str, metric: str
    ) -> dict[int, float]:
        """Mean metric vs number of grouping columns (Figures 4 and 8)."""
        return self.series_by(
            lambda r: r.workload_query.n_group_columns, technique, metric
        )

    def mean_speedup(self, technique: str) -> float:
        """Mean of per-query (exact time / approximate time)."""
        ratios = [
            r.exact_time / r.answer_times[technique]
            for r in self.records
            if r.answer_times.get(technique, 0.0) > 0 and r.exact_time > 0
        ]
        if not ratios:
            return float("nan")
        return float(np.mean(ratios))


def matched_rate(
    workload_query: WorkloadQuery, base_rate: float, allocation_ratio: float
) -> float:
    """The paper's per-query space match: ``r · (1 + γ·i)``."""
    return min(
        1.0,
        base_rate * (1.0 + allocation_ratio * workload_query.n_group_columns),
    )


def matched_rates(
    workload: Workload, base_rate: float, allocation_ratio: float
) -> tuple[float, ...]:
    """All matched rates a workload requires (one per grouping count)."""
    return tuple(
        sorted(
            {
                matched_rate(q, base_rate, allocation_ratio)
                for q in workload.queries
            }
        )
    )


def per_group_selectivity_of(group_counts: np.ndarray, total_rows: int) -> float:
    """Average result-group size as a fraction of the database (§5.3.1).

    ``group_counts`` holds the rows of each group of the exact answer.
    """
    if not len(group_counts) or total_rows <= 0:
        return 0.0
    return float(np.mean(group_counts)) / total_rows


def run_experiment(
    db: Database,
    workload: Workload,
    contenders: Iterable[Contender],
    base_rate: float,
    allocation_ratio: float,
    measure_time: bool = False,
) -> ExperimentResult:
    """Execute a workload exactly and with every contender; score answers."""
    contenders = list(contenders)
    if not contenders:
        raise ExperimentError("need at least one contender")
    names = tuple(c.name for c in contenders)
    if len(set(names)) != len(names):
        raise ExperimentError("contender names must be unique")
    total_rows = db.fact_table.n_rows
    records: list[QueryRecord] = []
    for wq in workload.queries:
        rate = matched_rate(wq, base_rate, allocation_ratio)
        if measure_time:
            # Timed figures reproduce the paper's fresh-query cost model;
            # warm memos would make the wall clocks depend on
            # query order (the warm path has its own benchmark).
            get_cache().clear()
        start = time.perf_counter()
        exact = execute(db, wq.query)
        exact_time = time.perf_counter() - start
        exact_values = exact.as_dict()
        record = QueryRecord(
            workload_query=wq,
            matched_rate=rate,
            per_group_selectivity=per_group_selectivity_of(
                exact.raw_counts, total_rows
            ),
            n_exact_groups=exact.n_groups,
            exact_time=exact_time,
        )
        for contender in contenders:
            if measure_time:
                get_cache().clear()
            start = time.perf_counter()
            answer = contender.technique.answer(wq.query, rate)
            elapsed = time.perf_counter() - start
            record.accuracies[contender.name] = score(
                exact_values, answer.as_dict()
            )
            record.rows_scanned[contender.name] = answer.rows_scanned
            if measure_time:
                record.answer_times[contender.name] = elapsed
        records.append(record)
    return ExperimentResult(
        records=records,
        technique_names=names,
        reports={
            c.name: c.report for c in contenders if c.report is not None
        },
    )


# ----------------------------------------------------------------------
# Standard contender builders
# ----------------------------------------------------------------------
def build_small_group_contender(
    db: Database,
    base_rate: float,
    allocation_ratio: float = 0.5,
    config: SmallGroupConfig | None = None,
    name: str = "small_group",
) -> Contender:
    """Pre-process small group sampling and wrap it as a contender."""
    if config is None:
        config = SmallGroupConfig(
            base_rate=base_rate,
            allocation_ratio=allocation_ratio,
            use_reservoir=False,
        )
    technique = SmallGroupSampling(config)
    report = technique.preprocess(db)
    return Contender(
        name=name,
        technique=technique,
        report=report,
    )


def build_uniform_contender(
    db: Database,
    rates: tuple[float, ...],
    seed: int = 0,
    name: str = "uniform",
) -> Contender:
    """Pre-process the uniform family and wrap it as a contender.

    ``rates`` should be the workload's matched rates; each query is
    answered from the sample whose rate matches its space grant.
    """
    technique = UniformSampling(UniformConfig(rates=rates, seed=seed))
    report = technique.preprocess(db)
    return Contender(
        name=name,
        technique=technique,
        report=report,
    )


def build_congress_contender(
    db: Database,
    rates: tuple[float, ...],
    columns: tuple[str, ...] | None = None,
    exclude_columns: tuple[str, ...] = (),
    seed: int = 0,
    name: str = "basic_congress",
) -> Contender:
    """Pre-process basic congress and wrap it as a contender."""
    technique = BasicCongress(
        CongressConfig(
            rates=rates,
            columns=columns,
            exclude_columns=exclude_columns,
            seed=seed,
        )
    )
    report = technique.preprocess(db)
    return Contender(
        name=name,
        technique=technique,
        report=report,
    )


def build_outlier_contender(
    db: Database,
    rates: tuple[float, ...],
    measures: tuple[str, ...],
    outlier_share: float = 1.0 / 3.0,
    seed: int = 0,
    name: str = "outlier_index",
) -> Contender:
    """Pre-process outlier indexing and wrap it as a contender."""
    technique = OutlierIndexing(
        OutlierConfig(
            rates=rates,
            measures=measures,
            outlier_share=outlier_share,
            seed=seed,
        )
    )
    report = technique.preprocess(db)
    return Contender(
        name=name,
        technique=technique,
        report=report,
    )


def build_hybrid_contender(
    db: Database,
    base_rate: float,
    measure: str,
    allocation_ratio: float = 0.5,
    outlier_share: float = 1.0 / 3.0,
    seed: int = 0,
    name: str = "small_group+outlier",
) -> Contender:
    """Pre-process the outlier-enhanced small group variant."""
    technique = SmallGroupWithOutlier(
        HybridConfig(
            base_rate=base_rate,
            allocation_ratio=allocation_ratio,
            measure=measure,
            outlier_share=outlier_share,
            use_reservoir=False,
            seed=seed,
        )
    )
    report = technique.preprocess(db)
    return Contender(
        name=name,
        technique=technique,
        report=report,
    )
