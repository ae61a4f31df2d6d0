"""The comparison the paper deferred: workload-based sampling [15].

"We do not present comparisons against other sampling-based AQP systems
such as [10, 15] as these methods require the presence of workloads."
We have workloads, so: small group sampling vs an Icicles-style
workload-biased sample vs uniform, on

* a *focused* workload (queries repeatedly filter the same rare region —
  the regime workload-biasing was designed for), and
* a *diffuse* ad hoc workload (the paper's §5.2.3 generator).

Expected shape: icicles wins its home regime; on ad hoc queries it loses
its edge (touch-biasing oversamples common-value rows); small group
sampling is the robust choice across both — the argument for
syntax-driven dynamic selection.
"""

import numpy as np

from benchmarks.conftest import record_figure
from repro.baselines.icicles import IciclesConfig, IciclesSampling
from repro.datagen.tpch import generate_tpch
from repro.engine.expressions import AggFunc, AggregateSpec, InSet, Query
from repro.experiments.figures import FigureRun
from repro.experiments.harness import (
    Contender,
    build_small_group_contender,
    build_uniform_contender,
    matched_rates,
    run_experiment,
)
from repro.experiments.reporting import format_table
from repro.workload.generator import generate_workload
from repro.workload.spec import Workload, WorkloadConfig, WorkloadQuery

BASE_RATE = 0.04
COUNT = AggregateSpec(AggFunc.COUNT, alias="cnt")


def focused_workload(queries_per_column: int = 4) -> Workload:
    predicate = InSet("s_region", ["s_region_003", "s_region_004"])
    grouping = (
        "l_shipmode",
        "p_brand",
        "o_custnation",
        "p_type",
        "l_shipyear",
        "o_orderpriority",
        "p_container",
        "o_custsegment",
    )
    queries = []
    for repeat in range(queries_per_column):
        for c in grouping:
            queries.append(
                WorkloadQuery(
                    Query("lineitem", (COUNT,), (c,), predicate),
                    1,
                    1,
                    0.1,
                    "COUNT",
                    len(queries),
                )
            )
    return Workload(
        config=WorkloadConfig(queries_per_combo=1), queries=tuple(queries)
    )


def test_workload_based_vs_dynamic_selection(benchmark):
    def run():
        db = generate_tpch(scale=1.0, z=2.0, rows_per_scale=40000)
        focused = focused_workload()
        diffuse = generate_workload(
            db,
            WorkloadConfig(
                group_column_counts=(1, 2),
                queries_per_combo=6,
                seed=26,
            ),
        )
        series: dict[str, dict[object, float]] = {}
        for label, train, evaluate in (
            ("focused", focused, focused),
            ("diffuse", diffuse, diffuse),
        ):
            rates = matched_rates(evaluate, BASE_RATE, 0.5)
            icicles = IciclesSampling(
                train, IciclesConfig(rates=rates, seed=26)
            )
            icicles.preprocess(db)
            contenders = [
                build_small_group_contender(db, BASE_RATE, 0.5),
                build_uniform_contender(db, rates, seed=26),
                Contender(name="icicles", technique=icicles),
            ]
            result = run_experiment(db, evaluate, contenders, BASE_RATE, 0.5)
            for name in ("small_group", "uniform", "icicles"):
                series.setdefault(f"{name}/rel_err", {})[label] = (
                    result.mean_metric(name, "rel_err")
                )
                series.setdefault(f"{name}/pct_groups", {})[label] = (
                    result.mean_metric(name, "pct_groups")
                )
        return FigureRun(figure="beyond-icicles", series=series)

    run_result = benchmark.pedantic(run, rounds=1, iterations=1)
    record_figure(run_result, note="the [15]-style comparison the paper deferred")
    rows = []
    for name in ("small_group", "icicles", "uniform"):
        for regime in ("focused", "diffuse"):
            rows.append(
                [
                    name,
                    regime,
                    run_result.series[f"{name}/rel_err"][regime],
                    run_result.series[f"{name}/pct_groups"][regime],
                ]
            )
    print(format_table(["technique", "workload", "RelErr", "PctGroups"], rows))

    err = lambda name, regime: run_result.series[f"{name}/rel_err"][regime]
    # Icicles wins its home regime against uniform ...
    assert err("icicles", "focused") < err("uniform", "focused")
    # ... but loses the edge on ad hoc queries.
    assert err("icicles", "diffuse") >= 0.9 * err("uniform", "diffuse")
    # Small group sampling is the robust choice in both regimes.
    assert err("small_group", "diffuse") < err("icicles", "diffuse")
    assert err("small_group", "focused") < err("uniform", "focused")
