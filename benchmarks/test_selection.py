"""Chunk-selection benchmark: provenance sketches + budgeted selection.

Two workloads, emitting ``BENCH_selection.json`` at the repo root:

* **Repeated-template (sketch) workload** — a table laid out so zone
  maps are useless: every chunk carries low/high sentinel rows, so each
  chunk's ``[min, max]`` spans the whole domain and every BETWEEN
  verdict is UNKNOWN, while the bulk values stay clustered.  Zone-map
  skipping alone therefore touches every row; after one evaluation
  records the realized chunk set, re-executions of the same template
  (equal or dominated parameters) scan only the sketched chunks.  The
  gate is deterministic: >= 5x rows-touched reduction over zone-map
  skipping alone, with byte-identical answers.

* **Budgeted-selection workload** — SmallGroup sampling answers a
  grouped SUM/COUNT under ``chunk_selection`` at three row budgets.
  For each budget the benchmark records the rows actually touched and
  the per-group error against the exact answer, and gates that >= 90%
  of groups cover the truth with their 95% confidence intervals,
  averaged over several selection seeds (one draw is a handful of
  correlated Bernoulli trials; the seed average is what measures CI
  calibration) — the Horvitz–Thompson reweighting must keep the CI
  machinery honest while the budget shrinks the scan.

Sizes honour ``REPRO_BENCH_ROWS`` (default 60000) so the CI smoke step
runs the same code path in seconds.  Wall times are reported for
context but not gated (timing noise on loaded runners), and the
coverage gate — like the timing gates in ``test_skipping.py`` — only
runs at full size: at smoke sizes the budget draws only one or two
chunks per piece, where the row-level variance model cannot see the
cluster structure and the nominal level is unreachable by design.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.datagen.synthetic import (
    CategoricalSpec,
    MeasureSpec,
    generate_flat_table,
)
from repro.engine import selection as sel
from repro.engine.cache import get_cache
from repro.engine.database import Database
from repro.engine.executor import execute
from repro.engine.expressions import (
    AggFunc,
    AggregateSpec,
    Between,
    Query,
)
from repro.engine.parallel import (
    ExecutionOptions,
    set_default_options,
    shutdown_pool,
)
from repro.engine.table import Table
from repro.engine.zonemap import PieceSkipStats
from repro.sql.parser import parse_query

ROWS = int(os.environ.get("REPRO_BENCH_ROWS", "60000"))
CHUNK_ROWS = max(256, ROWS // 60)
QUERY_BATCH = 8

AGGREGATES = (
    AggregateSpec(AggFunc.COUNT, alias="cnt"),
    AggregateSpec(AggFunc.SUM, "amount", alias="total"),
)


# ----------------------------------------------------------------------
# Workload 1: repeated-template sketch reuse
# ----------------------------------------------------------------------
def _sentinel_db() -> Database:
    """Clustered bulk values with per-chunk sentinels defeating zone maps.

    ``x`` is sorted (chunk *i* holds the run ``[i*C, (i+1)*C)``) but the
    first two rows of every chunk are overwritten with extreme
    sentinels, so each chunk's min/max spans the whole domain and no
    BETWEEN verdict can prove anything.
    """
    x = np.arange(ROWS, dtype=np.int64)
    for start in range(0, ROWS, CHUNK_ROWS):
        if start + 1 < ROWS:
            x[start] = -(10**9)
            x[start + 1] = 10**9
    amount = np.linspace(0.0, 100.0, num=ROWS)
    table = Table.from_dict("events", {"x": x, "amount": amount})
    return Database([table])


def _narrow_query(eps: int) -> Query:
    """~5% of the bulk rows; ``eps`` shrinks the range so every variant
    is a fresh predicate dominated by the first (widest) one."""
    lo = int(ROWS * 0.45)
    hi = int(ROWS * 0.50)
    return Query(
        "events", AGGREGATES, (), where=Between("x", lo + eps, hi - eps)
    )


def _widening_query(step: int) -> Query:
    """Ever-wider ranges: never dominated by anything recorded before."""
    lo = int(ROWS * 0.45)
    hi = int(ROWS * 0.50)
    return Query(
        "events", AGGREGATES, (), where=Between("x", lo - step, hi + step)
    )


def _run(db: Database, query: Query, options) -> tuple:
    stats = PieceSkipStats(description="bench")
    result = execute(db, query, options=options, skip_stats=stats)
    return result, stats


def _sketch_workload(payload: dict) -> None:
    db = _sentinel_db()
    options = ExecutionOptions(chunk_rows=CHUNK_ROWS)
    cache = get_cache()
    cache.clear()
    sel.reset_sketch_store()

    # Cold: zone maps alone.  The sentinels force a full scan.
    cold, cold_stats = _run(db, _narrow_query(0), options)
    assert not cold_stats.sketch_hit
    touched_zonemap = cold_stats.rows_touched
    assert touched_zonemap == ROWS, cold_stats

    # Re-execution of the same template: equal parameters hit the
    # recorded sketch (the mask cache is cleared so the WHERE really
    # re-evaluates), and dominated (narrower) parameters hit it too.
    cache.clear()
    warm, warm_stats = _run(db, _narrow_query(0), options)
    assert warm_stats.sketch_hit, warm_stats
    assert warm.rows == cold.rows and warm.raw_counts == cold.raw_counts

    dom, dom_stats = _run(db, _narrow_query(7), options)
    assert dom_stats.sketch_hit, dom_stats
    touched_sketch = dom_stats.rows_touched

    # Byte-identical to evaluating the dominated query with no sketches.
    cache.clear()
    sketchless_store = sel.get_sketch_store()
    sketchless_store.clear()
    base, base_stats = _run(db, _narrow_query(7), options)
    assert not base_stats.sketch_hit
    assert dom.rows == base.rows and dom.raw_counts == base.raw_counts

    # Timed batches (report-only): distinct parameters per query so the
    # mask cache never serves a timed query.
    cache.clear()
    sel.reset_sketch_store()
    start = time.perf_counter()
    for step in range(1, QUERY_BATCH + 1):
        execute(db, _widening_query(step * 3), options=options)
    seconds_zonemap = time.perf_counter() - start

    cache.clear()
    sel.reset_sketch_store()
    execute(db, _narrow_query(0), options=options)  # record the template
    start = time.perf_counter()
    for eps in range(1, QUERY_BATCH + 1):
        execute(db, _narrow_query(eps * 3), options=options)
    seconds_sketch = time.perf_counter() - start

    reduction = touched_zonemap / max(1, touched_sketch)
    payload["sketch"] = {
        "rows_touched_zonemap_only": touched_zonemap,
        "rows_touched_sketch": touched_sketch,
        "rows_touched_reduction": round(reduction, 2),
        "chunks_scanned_sketch": dom_stats.chunks_scanned,
        "n_chunks": dom_stats.n_chunks,
        "seconds_zonemap_batch": round(seconds_zonemap, 6),
        "seconds_sketch_batch": round(seconds_sketch, 6),
        "answers_identical": True,
    }
    assert reduction >= 5.0, payload["sketch"]


# ----------------------------------------------------------------------
# Workload 2: budgeted selection error-vs-rows-touched curve
# ----------------------------------------------------------------------
SPEC = dict(
    categoricals=[
        CategoricalSpec("color", 40, 1.2),
        CategoricalSpec("status", 4, 0.8),
    ],
    measures=[MeasureSpec("amount", distribution="lognormal")],
)
BASE_RATE = 0.1
SELECTION_SEEDS = 6
#: The coverage gate needs enough rows that each budget draws several
#: chunks per piece; below this the gate is recorded but not asserted.
COVERAGE_GATE_MIN_ROWS = 20000
SELECTION_SQL = (
    "SELECT color, COUNT(*) AS cnt, SUM(amount) AS total "
    "FROM flat WHERE amount >= 0.0 GROUP BY color"
)


def _budgets(sample_rows: int) -> tuple[int, int, int]:
    return (
        max(1, sample_rows // 8),
        max(1, sample_rows // 4),
        max(1, sample_rows // 2),
    )


def _budgeted_workload(payload: dict) -> None:
    db = Database([generate_flat_table("flat", ROWS, seed=13, **SPEC)])
    sample_chunk = max(64, ROWS // 250)
    technique = SmallGroupSampling(
        SmallGroupConfig(base_rate=BASE_RATE, use_reservoir=False, seed=13)
    )
    technique.preprocess(db)
    query = parse_query(SELECTION_SQL)

    truth_result = execute(db, query, options=ExecutionOptions())
    agg_names = truth_result.aggregate_names
    truth = {
        group: dict(zip(agg_names, row))
        for group, row in truth_result.rows.items()
    }

    curve = []
    previous = None
    for budget in _budgets(int(ROWS * BASE_RATE)):
        coverages = []
        rows_touched = []
        errors = []
        for seed in range(SELECTION_SEEDS):
            before = set_default_options(
                ExecutionOptions(
                    chunk_rows=sample_chunk,
                    chunk_selection=True,
                    selection_budget=budget,
                    selection_seed=seed,
                )
            )
            if previous is None:
                previous = before
            sel.reset_sketch_store()
            get_cache().clear()
            answer = technique.answer(query)
            report = answer.skip_report
            assert report is not None and report.pieces_selected > 0, budget
            rows_touched.append(report.rows_touched)

            covered = 0
            checked = 0
            for group, agg_truth in truth.items():
                for name in agg_names:
                    checked += 1
                    if group not in answer.groups:
                        continue  # a missing group cannot cover the truth
                    lo, hi = answer.confidence_interval(group, name)
                    true_value = agg_truth[name]
                    if lo <= true_value <= hi:
                        covered += 1
                    if true_value:
                        estimate = answer.estimate(group, name).value
                        errors.append(
                            abs(estimate - true_value) / abs(true_value)
                        )
            coverages.append(covered / max(1, checked))
        curve.append(
            {
                "budget": budget,
                "rows_touched": int(np.mean(rows_touched)),
                "ci95_coverage": round(float(np.mean(coverages)), 4),
                "ci95_coverage_min_seed": round(min(coverages), 4),
                "mean_relative_error": round(
                    float(np.mean(errors)) if errors else 0.0, 6
                ),
                "groups": len(truth),
                "selection_seeds": SELECTION_SEEDS,
            }
        )
    set_default_options(previous)
    shutdown_pool()

    gated = ROWS >= COVERAGE_GATE_MIN_ROWS
    payload["budgeted"] = {
        "sample_chunk_rows": sample_chunk,
        "base_rate": BASE_RATE,
        "coverage_gate_ran": gated,
        "curve": curve,
    }
    if gated:
        for point in curve:
            assert point["ci95_coverage"] >= 0.9, point


def test_selection():
    payload: dict = {
        "benchmark": "chunk_selection",
        "rows": ROWS,
        "chunk_rows": CHUNK_ROWS,
        "query_batch": QUERY_BATCH,
        "cpu_count": os.cpu_count() or 1,
    }
    try:
        _sketch_workload(payload)
        _budgeted_workload(payload)
    finally:
        out = Path(__file__).resolve().parents[1] / "BENCH_selection.json"
        out.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")
        get_cache().clear()
        sel.reset_sketch_store()
