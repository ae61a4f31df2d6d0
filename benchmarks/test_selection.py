"""Provenance-sketch benchmark: repeated-template sketch reuse.

Emits ``BENCH_selection.json`` at the repo root.  The table is laid out
so zone maps are useless: every chunk carries low/high sentinel rows, so
each chunk's ``[min, max]`` spans the whole domain and every BETWEEN
verdict is UNKNOWN, while the bulk values stay clustered.  Zone-map
skipping alone therefore touches every row; after one evaluation
records the realized chunk set, re-executions of the same template with
dominated parameters scan only the sketched chunks.  The
gate is deterministic: >= 5x rows-touched reduction over zone-map
skipping alone, with byte-identical answers.

Sizes honour ``REPRO_BENCH_ROWS`` (default 60000) so the CI smoke step
runs the same code path in seconds.  Wall times are reported for
context but not gated (timing noise on loaded runners).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.engine.cache import get_cache
from repro.engine.database import Database
from repro.engine.executor import execute
from repro.engine.expressions import (
    AggFunc,
    AggregateSpec,
    Between,
    Query,
)
from repro.engine.parallel import ExecutionOptions
from repro.engine.table import Table
from repro.engine.zonemap import PieceSkipStats

ROWS = int(os.environ.get("REPRO_BENCH_ROWS", "60000"))
CHUNK_ROWS = max(256, ROWS // 60)
QUERY_BATCH = 8

AGGREGATES = (
    AggregateSpec(AggFunc.COUNT, alias="cnt"),
    AggregateSpec(AggFunc.SUM, "amount", alias="total"),
)


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

    # Cold: zone maps alone.  The sentinels force a full scan.
    cold, cold_stats = _run(db, _narrow_query(0), options)
    assert not cold_stats.sketch_hit
    touched_zonemap = cold_stats.rows_touched
    assert touched_zonemap == ROWS, cold_stats

    # Re-execution of the template with dominated (narrower) parameters:
    # a distinct predicate, so the mask cache misses and the recorded
    # sketch serves the WHERE.
    dom, dom_stats = _run(db, _narrow_query(7), options)
    assert dom_stats.sketch_hit, dom_stats
    touched_sketch = dom_stats.rows_touched

    # Byte-identical to evaluating the dominated query with no sketches
    # (clearing the cache drops them with every other artifact).
    cache.clear()
    base, base_stats = _run(db, _narrow_query(7), options)
    assert not base_stats.sketch_hit
    assert dom.rows == base.rows and dom.raw_counts == base.raw_counts

    # Timed batches (report-only): distinct parameters per query so the
    # mask cache never serves a timed query.
    cache.clear()
    start = time.perf_counter()
    for step in range(1, QUERY_BATCH + 1):
        execute(db, _widening_query(step * 3), options=options)
    seconds_zonemap = time.perf_counter() - start

    cache.clear()
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


def test_selection():
    payload: dict = {
        "benchmark": "provenance_sketch",
        "rows": ROWS,
        "chunk_rows": CHUNK_ROWS,
        "query_batch": QUERY_BATCH,
        "cpu_count": os.cpu_count() or 1,
    }
    try:
        _sketch_workload(payload)
    finally:
        out = Path(__file__).resolve().parents[1] / "BENCH_selection.json"
        out.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")
        get_cache().clear()
