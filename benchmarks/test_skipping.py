"""Data-skipping benchmark: rows touched and wall time, on vs off.

Runs point (``region = ...``) and range (``amount BETWEEN ...``)
selections over two physical layouts of the same logical table —
*clustered* (values laid out in runs, the layout zone maps are built
for) and *shuffled* (a fixed permutation of the same rows, the
adversarial layout where chunk min/max spans everything) — and emits
``BENCH_skipping.json`` at the repo root.

Two different assertions, mirroring ``test_serving.py``:

* **Correctness and rows-touched are unconditional**: answers must be
  identical with skipping on and off, and on clustered data the
  selective predicates must touch >= 5x fewer rows with skipping on
  (that is the whole point of the subsystem, and it is a deterministic
  property of the zone maps, not of the hardware).
* **Wall time is hardware-gated**: the timing assertion only runs on
  machines with >= 4 CPUs — loaded CI runners and single-core boxes
  produce timing noise larger than the microsecond-scale scan savings
  at smoke sizes.

Each timed call executes a *batch* of epsilon-varied predicates so the
measured region is comfortably above timer resolution and none of the
queries hits the cross-query predicate-mask cache (a cached mask would
time the cache, not the scan).  Zone maps are warmed before timing:
their build cost is a one-off per column amortised across every later
query, and ``build_seconds`` is recorded separately in the JSON.

Sizes honour ``REPRO_BENCH_ROWS`` (default 60000) so the CI smoke step
runs the same code path in seconds.
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
    Equals,
    Query,
)
from repro.engine.parallel import ExecutionOptions
from repro.engine.table import Table
from repro.engine.zonemap import PieceSkipStats, column_zone_map

ROWS = int(os.environ.get("REPRO_BENCH_ROWS", "60000"))
REPEATS = 3
CHUNK_ROWS = max(256, ROWS // 30)
N_REGIONS = 20
QUERY_BATCH = 8

AGGREGATES = (
    AggregateSpec(AggFunc.COUNT, alias="cnt"),
    AggregateSpec(AggFunc.SUM, "amount", alias="total"),
)


def _make_db(clustered: bool) -> Database:
    """The same logical rows in a clustered or shuffled physical order."""
    region = np.repeat(
        [f"r{i:03d}" for i in range(N_REGIONS)], ROWS // N_REGIONS
    )[:ROWS]
    amount = np.linspace(0.0, 100.0, num=ROWS)
    grp = np.array([f"g{i % 4}" for i in range(ROWS)])
    if not clustered:
        order = np.random.default_rng(42).permutation(ROWS)
        region, amount, grp = region[order], amount[order], grp[order]
    table = Table.from_dict(
        "events",
        {"region": list(region), "amount": amount, "grp": list(grp)},
    )
    return Database([table])


def _point_query(repeat: int) -> Query:
    # Rotate the region so each repeat is a fresh predicate (no mask
    # cache hit) with identical selectivity (equal-sized regions).
    return Query(
        "events",
        AGGREGATES,
        ("grp",),
        where=Equals("region", f"r{repeat % N_REGIONS:03d}"),
    )


def _range_query(repeat: int) -> Query:
    # An epsilon shift keeps the predicate object fresh without moving
    # any row across the boundary (values are spaced ~100/ROWS apart).
    eps = repeat * 1e-9
    return Query(
        "events",
        AGGREGATES,
        ("grp",),
        where=Between("amount", 10.0 + eps, 15.0 + eps),
    )


QUERY_MAKERS = {"point": _point_query, "range": _range_query}


def _rows_touched(db: Database, query: Query, options) -> int:
    stats = PieceSkipStats(description="bench")
    execute(db, query, options=options, skip_stats=stats)
    return stats.rows_touched


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _timed_batch(db: Database, maker, options, base: int):
    def run():
        for repeat in range(QUERY_BATCH):
            execute(db, maker(base + repeat), options=options)

    return run


def test_skipping():
    on = ExecutionOptions(chunk_rows=CHUNK_ROWS, data_skipping=True)
    off = ExecutionOptions(chunk_rows=CHUNK_ROWS, data_skipping=False)
    cache = get_cache()

    results: dict[str, dict] = {}
    build_seconds: dict[str, float] = {}
    for layout in ("clustered", "shuffled"):
        db = _make_db(clustered=layout == "clustered")
        cache.clear()

        # Warm the zone maps once (their one-off build cost is reported,
        # not folded into per-query timings).
        start = time.perf_counter()
        for name in ("region", "amount", "grp"):
            column_zone_map(db.fact_table.column(name), on)
        build_seconds[layout] = time.perf_counter() - start

        results[layout] = {}
        for kind, maker in QUERY_MAKERS.items():
            # Correctness first: identical answers with skipping on/off.
            answer_on = execute(db, maker(0), options=on)
            answer_off = execute(db, maker(0), options=off)
            assert answer_on.rows == answer_off.rows, (layout, kind)
            assert answer_on.raw_counts == answer_off.raw_counts

            # Distinct repeat indices: the same predicate value would hit
            # the mask cached by the first measurement and report 0 rows.
            touched_on = _rows_touched(db, maker(1), on)
            touched_off = _rows_touched(db, maker(2), off)
            assert touched_off == ROWS

            # Distinct predicate ranges per (layout, kind, setting) so no
            # timed query ever hits the predicate-mask cache.
            seconds_on = _best_of(_timed_batch(db, maker, on, base=100))
            seconds_off = _best_of(_timed_batch(db, maker, off, base=200))
            results[layout][kind] = {
                "rows_touched_on": touched_on,
                "rows_touched_off": touched_off,
                "rows_touched_reduction": round(
                    touched_off / max(1, touched_on), 2
                ),
                "seconds_on": round(seconds_on, 6),
                "seconds_off": round(seconds_off, 6),
                "speedup": round(seconds_off / seconds_on, 3),
            }

    cpu_count = os.cpu_count() or 1
    payload = {
        "benchmark": "data_skipping",
        "rows": ROWS,
        "chunk_rows": CHUNK_ROWS,
        "query_batch": QUERY_BATCH,
        "repeats": REPEATS,
        "cpu_count": cpu_count,
        "zone_map_build_seconds": {
            layout: round(s, 6) for layout, s in build_seconds.items()
        },
        "layouts": results,
        "answers_identical_on_off": True,
    }
    out = Path(__file__).resolve().parents[1] / "BENCH_skipping.json"
    out.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")

    # Rows-touched gate (unconditional): on clustered data a 5%-selective
    # predicate must scan >= 5x fewer rows with skipping on.
    for kind in QUERY_MAKERS:
        reduction = results["clustered"][kind]["rows_touched_reduction"]
        assert reduction >= 5.0, (kind, payload)

    # Timing gate (hardware-dependent), mirroring the parallel-scaling
    # benchmark's CPU-count gate.
    if cpu_count >= 4:
        for kind in QUERY_MAKERS:
            assert results["clustered"][kind]["speedup"] > 1.0, (
                kind,
                payload,
            )
