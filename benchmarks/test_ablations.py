"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper, but studies of its design knobs:

* empirical sampling-allocation-ratio sweep (the experimental companion
  to Figure 3(a): γ = 0.5 should be near the sweet spot, and the choice
  should not be critical);
* the §4.2.3 variations: pair-column tables and the multi-level
  hierarchy, versus the basic algorithm;
* the runtime cap on small group tables per query (time/accuracy trade).
"""

import numpy as np

from benchmarks.conftest import record_figure
from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.datagen.tpch import generate_tpch
from repro.experiments.figures import FigureRun
from repro.experiments.harness import (
    Contender,
    matched_rates,
    run_experiment,
)
from repro.experiments.reporting import ascii_chart, format_table
from repro.workload.generator import generate_workload
from repro.workload.spec import WorkloadConfig

BASE_RATE = 0.04


def _workload(db, queries_per_combo=8, seed=21, group_column_counts=(2, 3)):
    return generate_workload(
        db,
        WorkloadConfig(
            group_column_counts=group_column_counts,
            queries_per_combo=queries_per_combo,
            seed=seed,
        ),
    )


def _contender(db, name, config):
    technique = SmallGroupSampling(config)
    report = technique.preprocess(db)
    return Contender(name=name, technique=technique, report=report)


def test_allocation_ratio_ablation(benchmark):
    """Empirical γ sweep at fixed total runtime space."""

    def run():
        db = generate_tpch(scale=1.0, z=2.0, rows_per_scale=60000)
        workload = _workload(db)
        gammas = (0.0, 0.25, 0.5, 1.0, 2.0)
        series = {"small_group/rel_err": {}, "small_group/pct_groups": {}}
        for gamma in gammas:
            # Fixed runtime budget: overall rate shrinks as gamma grows
            # (mirroring the analytical comparison in Section 4.4).
            mean_g = float(np.mean([q.n_group_columns for q in workload.queries]))
            total = BASE_RATE * (1 + 0.5 * mean_g)
            overall = total / (1 + gamma * mean_g)
            config = SmallGroupConfig(
                base_rate=overall,
                allocation_ratio=gamma,
                use_reservoir=False,
            )
            contender = _contender(db, "sg", config)
            result = run_experiment(db, workload, [contender], overall, gamma)
            series["small_group/rel_err"][gamma] = result.mean_metric(
                "sg", "rel_err"
            )
            series["small_group/pct_groups"][gamma] = result.mean_metric(
                "sg", "pct_groups"
            )
        return FigureRun(figure="ablation-gamma", series=series)

    run_result = benchmark.pedantic(run, rounds=1, iterations=1)
    record_figure(run_result, note="empirical allocation-ratio sweep")
    errs = run_result.series["small_group/rel_err"]
    gammas = sorted(errs)
    print(
        ascii_chart(
            gammas,
            {"rel_err": [errs[g] for g in gammas]},
            title="Ablation: RelErr vs allocation ratio",
        )
    )
    # gamma = 0.5 beats gamma = 0 (pure uniform) on this skewed data ...
    assert errs[0.5] < errs[0.0]
    # ... and the mid-range choices are not critical (paper's finding).
    mid = [errs[0.25], errs[0.5], errs[1.0]]
    assert max(mid) < 1.5 * min(mid)


def test_variations_ablation(benchmark):
    """Basic vs pair-column vs multi-level small group sampling."""

    def run():
        db = generate_tpch(scale=1.0, z=2.0, rows_per_scale=40000)
        workload = _workload(db, queries_per_combo=6, seed=22)
        t = SmallGroupConfig(base_rate=BASE_RATE).small_fraction
        contenders = [
            _contender(
                db, "basic", SmallGroupConfig(base_rate=BASE_RATE, use_reservoir=False)
            ),
            _contender(
                db,
                "pairs",
                SmallGroupConfig(
                    base_rate=BASE_RATE,
                    use_reservoir=False,
                    pair_columns=(
                        ("l_shipmode", "p_brand"),
                        ("o_custnation", "l_returnflag"),
                    ),
                ),
            ),
            _contender(
                db,
                "multilevel",
                SmallGroupConfig(
                    base_rate=BASE_RATE,
                    use_reservoir=False,
                    levels=((t, 1.0), (4 * t, 0.25)),
                ),
            ),
        ]
        result = run_experiment(db, workload, contenders, BASE_RATE, 0.5)
        series = {}
        for name in ("basic", "pairs", "multilevel"):
            series[f"{name}/overall"] = {
                "rel_err": result.mean_metric(name, "rel_err"),
                "pct_groups": result.mean_metric(name, "pct_groups"),
                "rows_per_query": float(
                    np.mean([r.rows_scanned[name] for r in result.records])
                ),
            }
        return FigureRun(figure="ablation-variations", series=series)

    run_result = benchmark.pedantic(run, rounds=1, iterations=1)
    record_figure(run_result, note="§4.2.3 variations vs the basic algorithm")
    rows = [
        [name.split("/")[0], data["rel_err"], data["pct_groups"], data["rows_per_query"]]
        for name, data in sorted(run_result.series.items())
    ]
    print(format_table(["variant", "RelErr", "PctGroups", "rows/query"], rows))
    basic = run_result.series["basic/overall"]
    multilevel = run_result.series["multilevel/overall"]
    # The multi-level hierarchy spends more rows per query and should not
    # miss more groups than the basic two-level scheme.
    assert multilevel["pct_groups"] <= basic["pct_groups"] * 1.15
    for data in run_result.series.values():
        assert np.isfinite(data["rel_err"])


def test_workload_trimming_ablation(benchmark):
    """§5.4.2's space optimisation: trim columns by workload reference."""

    def run():
        from repro.core.workload_policy import small_group_for_workload
        from repro.workload.generator import eligible_grouping_columns

        db = generate_tpch(scale=1.0, z=2.0, rows_per_scale=40000)
        # A narrow workload that only ever groups on a handful of columns;
        # trimming should cut stored rows drastically while keeping
        # accuracy on that workload.
        view = db.joined_view()
        all_columns = eligible_grouping_columns(view, WorkloadConfig())
        narrow = all_columns[:8]
        workload = generate_workload(
            db,
            WorkloadConfig(
                group_column_counts=(1, 2),
                queries_per_combo=8,
                seed=24,
                exclude_columns=tuple(all_columns[8:]),
            ),
        )
        assert all(
            set(q.query.group_by) <= set(narrow) for q in workload.queries
        )
        full = _contender(
            db, "full", SmallGroupConfig(base_rate=BASE_RATE, use_reservoir=False)
        )
        trimmed_technique = small_group_for_workload(
            db,
            workload,
            config=SmallGroupConfig(base_rate=BASE_RATE, use_reservoir=False),
        )
        trimmed = Contender(name="trimmed", technique=trimmed_technique)
        result = run_experiment(db, workload, [full, trimmed], BASE_RATE, 0.5)
        series = {}
        for name, technique in (
            ("full", full.technique),
            ("trimmed", trimmed_technique),
        ):
            series[f"{name}/overall"] = {
                "rel_err": result.mean_metric(name, "rel_err"),
                "pct_groups": result.mean_metric(name, "pct_groups"),
                "stored_rows": float(
                    sum(i.n_rows for i in technique.sample_tables())
                ),
            }
        return FigureRun(figure="ablation-trimming", series=series)

    run_result = benchmark.pedantic(run, rounds=1, iterations=1)
    record_figure(run_result, note="workload-trimmed candidate columns")
    full = run_result.series["full/overall"]
    trimmed = run_result.series["trimmed/overall"]
    # Trimming saves a lot of space ...
    assert trimmed["stored_rows"] < 0.8 * full["stored_rows"]
    # ... at (essentially) no accuracy cost on the training workload: the
    # trimmed column set covers every column the workload groups on.
    assert trimmed["pct_groups"] <= full["pct_groups"] + 3.0
    assert trimmed["rel_err"] <= full["rel_err"] * 1.15


def test_max_tables_cap_ablation(benchmark):
    """Capping small group tables per query trades accuracy for time."""

    def run():
        db = generate_tpch(scale=1.0, z=2.0, rows_per_scale=40000)
        workload = _workload(
            db, queries_per_combo=6, seed=23, group_column_counts=(4,)
        )
        contenders = [
            _contender(
                db,
                "uncapped",
                SmallGroupConfig(base_rate=BASE_RATE, use_reservoir=False),
            ),
            _contender(
                db,
                "cap1",
                SmallGroupConfig(
                    base_rate=BASE_RATE,
                    use_reservoir=False,
                    max_tables_per_query=1,
                ),
            ),
        ]
        result = run_experiment(db, workload, contenders, BASE_RATE, 0.5)
        series = {}
        for name in ("uncapped", "cap1"):
            series[f"{name}/overall"] = {
                "pct_groups": result.mean_metric(name, "pct_groups"),
                "rows_per_query": float(
                    np.mean([r.rows_scanned[name] for r in result.records])
                ),
            }
        return FigureRun(figure="ablation-cap", series=series)

    run_result = benchmark.pedantic(run, rounds=1, iterations=1)
    record_figure(run_result, note="max_tables_per_query runtime cap")
    uncapped = run_result.series["uncapped/overall"]
    capped = run_result.series["cap1/overall"]
    # The cap reduces rows scanned and costs (some) accuracy.
    assert capped["rows_per_query"] < uncapped["rows_per_query"]
    assert capped["pct_groups"] >= uncapped["pct_groups"] * 0.95
