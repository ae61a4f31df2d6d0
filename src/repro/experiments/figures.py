"""Canonical experiment configurations — one per paper figure/table.

Each ``run_*`` function reproduces one result from Section 4.4 or 5 at a
laptop-friendly scale and returns the data the paper plots.  The
``benchmarks/`` tree calls these and prints/asserts the paper's shapes;
``examples/`` reuse them interactively.  Row counts and query counts are
parameters so tests can run tiny versions.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.model import figure_3a_series, figure_3b_series
from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.baselines.congress import BasicCongress, CongressConfig
from repro.baselines.outlier import OutlierConfig, OutlierIndexing
from repro.baselines.uniform import UniformConfig, UniformSampling
from repro.datagen.sales import SALES_MEASURE_COLUMNS, generate_sales
from repro.datagen.tpch import TPCH_MEASURE_COLUMNS, generate_tpch
from repro.engine.database import Database
from repro.experiments.harness import (
    ExperimentResult,
    build_congress_contender,
    build_hybrid_contender,
    build_outlier_contender,
    build_small_group_contender,
    build_uniform_contender,
    matched_rates,
    run_experiment,
)
from repro.experiments.reporting import selectivity_bin_label
from repro.workload.generator import generate_workload
from repro.workload.spec import Workload, WorkloadConfig

# The paper runs at 1% of a 6M-row database (60k sampled rows).  Our
# laptop-scale databases are ~100x smaller, so the default base rate is
# scaled up to keep the absolute number of sampled rows per group — the
# quantity accuracy actually depends on — in the paper's regime.
BASE_RATE = 0.04
ALLOCATION_RATIO = 0.5


@dataclass
class FigureRun:
    """Output of one figure reproduction.

    ``series`` maps a series name (e.g. ``"small_group/rel_err"``) to a
    dict of x → y values; ``extras`` carries figure-specific scalars.
    """

    figure: str
    series: dict[str, dict[object, float]] = field(default_factory=dict)
    extras: dict[str, object] = field(default_factory=dict)
    result: ExperimentResult | None = None


# ----------------------------------------------------------------------
# Figure 3 — analytical model
# ----------------------------------------------------------------------
def run_figure3a() -> FigureRun:
    """SqRelErr vs sampling allocation ratio (analytical)."""
    ratios, errors, uniform = figure_3a_series()
    return FigureRun(
        figure="3a",
        series={
            "small_group/sq_rel_err": {
                float(g): float(e) for g, e in zip(ratios, errors)
            },
            "uniform/sq_rel_err": {float(g): uniform for g in ratios},
        },
        extras={"uniform": uniform},
    )


def run_figure3b() -> FigureRun:
    """SqRelErr vs skew (analytical, log-scale in the paper)."""
    skews, small, uniform = figure_3b_series()
    return FigureRun(
        figure="3b",
        series={
            "small_group/sq_rel_err": {
                float(z): float(e) for z, e in zip(skews, small)
            },
            "uniform/sq_rel_err": {
                float(z): float(e) for z, e in zip(skews, uniform)
            },
        },
    )


# ----------------------------------------------------------------------
# Shared helpers for the empirical figures
# ----------------------------------------------------------------------
def _count_workload(
    db: Database,
    queries_per_combo: int,
    seed: int,
    group_column_counts: tuple[int, ...] = (1, 2, 3, 4),
) -> Workload:
    return generate_workload(
        db,
        WorkloadConfig(
            group_column_counts=group_column_counts,
            queries_per_combo=queries_per_combo,
            seed=seed,
        ),
    )


def _sg_vs_uniform(
    db: Database,
    workload: Workload,
    base_rate: float = BASE_RATE,
    seed: int = 0,
    measure_time: bool = False,
) -> ExperimentResult:
    rates = matched_rates(workload, base_rate, ALLOCATION_RATIO)
    contenders = [
        build_small_group_contender(db, base_rate, ALLOCATION_RATIO),
        build_uniform_contender(db, rates, seed=seed),
    ]
    return run_experiment(
        db,
        workload,
        contenders,
        base_rate,
        ALLOCATION_RATIO,
        measure_time=measure_time,
    )


def _per_figure_series(
    result: ExperimentResult, by: str = "group_columns"
) -> dict[str, dict[object, float]]:
    series: dict[str, dict[object, float]] = {}
    for technique in result.technique_names:
        for metric in ("rel_err", "pct_groups"):
            if by == "group_columns":
                data = result.series_by_group_columns(technique, metric)
            elif by == "selectivity":
                data = result.series_by(
                    lambda r: selectivity_bin_label(r.per_group_selectivity),
                    technique,
                    metric,
                )
            else:
                raise ValueError(f"unknown binning {by!r}")
            series[f"{technique}/{metric}"] = data
    return series


# ----------------------------------------------------------------------
# Figure 4 — SmGroup vs Uniform on TPCH1G2.0z, by #grouping columns
# ----------------------------------------------------------------------
def run_figure4(
    rows_per_scale: int = 60000,
    queries_per_combo: int = 8,
    seed: int = 1,
) -> FigureRun:
    """RelErr and PctGroups vs number of grouping columns (TPCH1G2.0z)."""
    db = generate_tpch(scale=1.0, z=2.0, rows_per_scale=rows_per_scale)
    workload = _count_workload(db, queries_per_combo, seed)
    result = _sg_vs_uniform(db, workload)
    return FigureRun(
        figure="4",
        series=_per_figure_series(result, by="group_columns"),
        result=result,
    )


# ----------------------------------------------------------------------
# Figure 5 — error vs per-group selectivity on SALES (and TPCH, §5.3.1)
# ----------------------------------------------------------------------
def run_figure5(
    sales_scale: float = 1.0,
    queries_per_combo: int = 8,
    seed: int = 2,
    database: str = "sales",
    rows_per_scale: int = 60000,
) -> FigureRun:
    """RelErr and PctGroups vs per-group selectivity bins."""
    if database == "sales":
        db = generate_sales(scale=sales_scale)
    elif database == "tpch":
        db = generate_tpch(scale=1.0, z=2.0, rows_per_scale=rows_per_scale)
    else:
        raise ValueError(f"unknown database {database!r}")
    workload = _count_workload(db, queries_per_combo, seed)
    result = _sg_vs_uniform(db, workload)
    return FigureRun(
        figure="5" if database == "sales" else "5-tpch",
        series=_per_figure_series(result, by="selectivity"),
        result=result,
        extras={"database": database},
    )


# ----------------------------------------------------------------------
# Figure 6 — RelErr vs skew on the TPCH1Gyz family
# ----------------------------------------------------------------------
def run_figure6(
    skews: tuple[float, ...] = (1.0, 1.5, 2.0, 2.5),
    rows_per_scale: int = 60000,
    queries_per_combo: int = 6,
    seed: int = 3,
) -> FigureRun:
    """Mean RelErr (and PctGroups) per Zipf parameter, both techniques."""
    series: dict[str, dict[object, float]] = {
        "small_group/rel_err": {},
        "uniform/rel_err": {},
        "small_group/pct_groups": {},
        "uniform/pct_groups": {},
    }
    for z in skews:
        db = generate_tpch(scale=1.0, z=z, rows_per_scale=rows_per_scale)
        workload = _count_workload(db, queries_per_combo, seed)
        result = _sg_vs_uniform(db, workload)
        for technique in ("small_group", "uniform"):
            for metric in ("rel_err", "pct_groups"):
                series[f"{technique}/{metric}"][z] = result.mean_metric(
                    technique, metric
                )
    return FigureRun(figure="6", series=series)


# ----------------------------------------------------------------------
# Figure 7 — error vs base sampling rate on TPCH1G2.0z
# ----------------------------------------------------------------------
def run_figure7(
    rates: tuple[float, ...] = (0.01, 0.02, 0.04, 0.08, 0.16),
    rows_per_scale: int = 60000,
    queries_per_combo: int = 6,
    seed: int = 4,
) -> FigureRun:
    """Mean RelErr and PctGroups per base sampling rate, both techniques."""
    db = generate_tpch(scale=1.0, z=2.0, rows_per_scale=rows_per_scale)
    workload = _count_workload(db, queries_per_combo, seed)
    series: dict[str, dict[object, float]] = {
        "small_group/rel_err": {},
        "uniform/rel_err": {},
        "small_group/pct_groups": {},
        "uniform/pct_groups": {},
    }
    for rate in rates:
        result = _sg_vs_uniform(db, workload, base_rate=rate)
        for technique in ("small_group", "uniform"):
            for metric in ("rel_err", "pct_groups"):
                series[f"{technique}/{metric}"][rate] = result.mean_metric(
                    technique, metric
                )
    return FigureRun(figure="7", series=series)


# ----------------------------------------------------------------------
# Figure 8 — SmGroup vs Basic Congress vs Uniform on SALES
# ----------------------------------------------------------------------
def run_figure8(
    sales_scale: float = 1.5,
    queries_per_combo: int = 6,
    seed: int = 5,
) -> FigureRun:
    """RelErr and PctGroups vs #grouping columns, three techniques."""
    db = generate_sales(scale=sales_scale)
    workload = _count_workload(db, queries_per_combo, seed)
    rates = matched_rates(workload, BASE_RATE, ALLOCATION_RATIO)
    contenders = [
        build_small_group_contender(db, BASE_RATE, ALLOCATION_RATIO),
        build_congress_contender(db, rates, seed=seed),
        build_uniform_contender(db, rates, seed=seed),
    ]
    result = run_experiment(
        db, workload, contenders, BASE_RATE, ALLOCATION_RATIO
    )
    run = FigureRun(
        figure="8",
        series=_per_figure_series(result, by="group_columns"),
        result=result,
    )
    congress = next(
        c for c in contenders if c.name == "basic_congress"
    )
    if congress.report is not None:
        run.extras["n_strata"] = congress.report.details.get("n_strata")
    return run


# ----------------------------------------------------------------------
# §5.3.3 — SUM queries: SG+outlier vs outlier indexing vs uniform
# ----------------------------------------------------------------------
def run_table_outlier(
    sales_scale: float = 1.0,
    queries_per_combo: int = 6,
    seed: int = 6,
) -> FigureRun:
    """Overall RelErr / missed-group means for the SUM comparison."""
    db = generate_sales(scale=sales_scale)
    workload = generate_workload(
        db,
        WorkloadConfig(
            group_column_counts=(1, 2, 3),
            aggregate="SUM",
            measure_columns=SALES_MEASURE_COLUMNS,
            queries_per_combo=queries_per_combo,
            seed=seed,
        ),
    )
    rates = matched_rates(workload, BASE_RATE, ALLOCATION_RATIO)
    contenders = [
        build_hybrid_contender(
            db, BASE_RATE, measure="s_revenue", seed=seed
        ),
        build_outlier_contender(
            db, rates, measures=SALES_MEASURE_COLUMNS, seed=seed
        ),
        build_uniform_contender(db, rates, seed=seed),
    ]
    result = run_experiment(
        db, workload, contenders, BASE_RATE, ALLOCATION_RATIO
    )
    series: dict[str, dict[object, float]] = {}
    for technique in result.technique_names:
        series[f"{technique}/overall"] = {
            "rel_err": result.mean_metric(technique, "rel_err"),
            "pct_groups": result.mean_metric(technique, "pct_groups"),
        }
    return FigureRun(figure="5.3.3", series=series, result=result)


# ----------------------------------------------------------------------
# Figure 9 + §5.4.1 — query processing speedups
# ----------------------------------------------------------------------
def run_figure9(
    rows_per_scale: int = 60000,
    scale: float = 5.0,
    z: float = 1.5,
    queries_per_combo: int = 4,
    seed: int = 7,
) -> FigureRun:
    """Speedup vs exact execution, overall and by #grouping columns."""
    db = generate_tpch(scale=scale, z=z, rows_per_scale=rows_per_scale)
    workload = _count_workload(db, queries_per_combo, seed)
    rates = matched_rates(workload, BASE_RATE, ALLOCATION_RATIO)
    contenders = [
        build_small_group_contender(db, BASE_RATE, ALLOCATION_RATIO),
        build_uniform_contender(db, rates, seed=seed),
    ]
    result = run_experiment(
        db,
        workload,
        contenders,
        BASE_RATE,
        ALLOCATION_RATIO,
        measure_time=True,
    )
    speedup_by_g: dict[object, float] = {}
    for g in sorted({q.n_group_columns for q in workload.queries}):
        records = [
            r
            for r in result.records
            if r.workload_query.n_group_columns == g
            and r.answer_times.get("small_group", 0) > 0
        ]
        if records:
            speedup_by_g[g] = float(
                np.mean(
                    [r.exact_time / r.answer_times["small_group"] for r in records]
                )
            )
    return FigureRun(
        figure="9",
        series={"small_group/speedup": speedup_by_g},
        extras={
            "overall_speedup/small_group": result.mean_speedup("small_group"),
            "overall_speedup/uniform": result.mean_speedup("uniform"),
        },
        result=result,
    )


# ----------------------------------------------------------------------
# §5.4.2 — pre-processing time and space
# ----------------------------------------------------------------------
def run_table_preprocessing(
    rows_per_scale: int = 60000,
    sales_scale: float = 1.0,
    base_rates: tuple[float, ...] = (0.04, 0.01),
) -> FigureRun:
    """Pre-processing wall time and space overhead for every technique."""
    rows: dict[str, dict[object, float]] = {}
    for db_name, db in (
        ("TPCH1G2.0z", generate_tpch(scale=1.0, z=2.0, rows_per_scale=rows_per_scale)),
        ("SALES", generate_sales(scale=sales_scale)),
    ):
        measures = (
            TPCH_MEASURE_COLUMNS if db_name.startswith("TPCH") else SALES_MEASURE_COLUMNS
        )
        for base_rate in base_rates:
            techniques = {
                "small_group": SmallGroupSampling(
                    SmallGroupConfig(
                        base_rate=base_rate,
                        allocation_ratio=ALLOCATION_RATIO,
                        use_reservoir=False,
                    )
                ),
                "uniform": UniformSampling(UniformConfig(rates=(base_rate,))),
                "basic_congress": BasicCongress(
                    CongressConfig(rates=(base_rate,))
                ),
                "outlier_index": OutlierIndexing(
                    OutlierConfig(rates=(base_rate,), measures=measures)
                ),
            }
            for name, technique in techniques.items():
                start = time.perf_counter()
                report = technique.preprocess(db)
                elapsed = time.perf_counter() - start
                key = f"{db_name}@{base_rate:g}"
                rows.setdefault(f"{name}/time_s", {})[key] = elapsed
                rows.setdefault(f"{name}/space_overhead", {})[key] = (
                    report.space_overhead
                )
                rows.setdefault(f"{name}/row_overhead", {})[key] = (
                    report.row_overhead
                )
    return FigureRun(figure="5.4.2", series=rows)


# ----------------------------------------------------------------------
# The registry ``python -m repro list`` and ``figure`` read
# ----------------------------------------------------------------------
#: Figure id → (description, full runner, quick runner).
FIGURES: dict[str, tuple[str, Callable[[], FigureRun], Callable[[], FigureRun]]] = {
    "3a": (
        "Analytical SqRelErr vs sampling allocation ratio",
        run_figure3a,
        run_figure3a,
    ),
    "3b": (
        "Analytical SqRelErr vs skew",
        run_figure3b,
        run_figure3b,
    ),
    "4": (
        "SmGroup vs Uniform on TPCH1G2.0z by #grouping columns",
        lambda: run_figure4(queries_per_combo=10),
        lambda: run_figure4(rows_per_scale=8000, queries_per_combo=2),
    ),
    "5": (
        "Error vs per-group selectivity on SALES",
        lambda: run_figure5(queries_per_combo=10),
        lambda: run_figure5(sales_scale=0.2, queries_per_combo=2),
    ),
    "5-tpch": (
        "Error vs per-group selectivity on TPCH (§5.3.1)",
        lambda: run_figure5(database="tpch", queries_per_combo=8),
        lambda: run_figure5(
            database="tpch", rows_per_scale=8000, queries_per_combo=2
        ),
    ),
    "6": (
        "RelErr vs skew on the TPCH1Gyz family",
        lambda: run_figure6(queries_per_combo=8),
        lambda: run_figure6(
            skews=(1.0, 2.0), rows_per_scale=8000, queries_per_combo=2
        ),
    ),
    "7": (
        "Error vs base sampling rate on TPCH1G2.0z",
        lambda: run_figure7(queries_per_combo=8),
        lambda: run_figure7(
            rates=(0.02, 0.08), rows_per_scale=8000, queries_per_combo=2
        ),
    ),
    "8": (
        "SmGroup vs Basic Congress vs Uniform on SALES",
        lambda: run_figure8(queries_per_combo=10),
        lambda: run_figure8(sales_scale=0.2, queries_per_combo=2),
    ),
    "5.3.3": (
        "SUM queries: SG+outlier vs outlier indexing vs uniform",
        lambda: run_table_outlier(queries_per_combo=10),
        lambda: run_table_outlier(sales_scale=0.2, queries_per_combo=2),
    ),
    "9": (
        "Query-processing speedups (TPCH5G1.5z)",
        lambda: run_figure9(queries_per_combo=5),
        lambda: run_figure9(
            rows_per_scale=8000, scale=1.0, queries_per_combo=2
        ),
    ),
    "5.4.2": (
        "Pre-processing time and space for all techniques",
        run_table_preprocessing,
        lambda: run_table_preprocessing(
            rows_per_scale=8000, sales_scale=0.2, base_rates=(0.04,)
        ),
    ),
}
