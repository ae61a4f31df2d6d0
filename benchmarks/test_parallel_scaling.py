"""Scaling benchmark for the thread pool's pre-processing scans.

Measures cold wall time of ``collect_column_stats`` over the joined
view — the chunked pre-processing scan — on the thread pool at 1/2/4/8
workers against a serial baseline, and emits ``BENCH_parallel.json``
(v4) at the repo root.  The §4.2.2 query pieces are not measured: the
combiner runs them in a serial loop at every worker count.

The one assertion is unconditional: the statistics must be identical at
every worker count (the determinism contract of ``docs/internals.md``
§8).  Timings and speedups are recorded, not gated.

The payload also records the thread pool's scatter overheads — submit
and wait seconds — pulled from the metrics registry around the timed
runs, so a comparison shows *where* the time goes, not just totals.

Sizes honour ``REPRO_BENCH_ROWS`` (fact rows; default 60000) so the CI
smoke step can run the same code path in seconds.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.datagen.tpch import generate_tpch
from repro.engine.parallel import ExecutionOptions, shutdown_pool
from repro.engine.stats import collect_column_stats
from repro.obs.registry import get_registry

WORKER_COUNTS = (1, 2, 4, 8)
ROWS = int(os.environ.get("REPRO_BENCH_ROWS", "60000"))
REPEATS = 3

#: Histogram names whose sums make up the pool's scatter overhead.
_OVERHEAD_METRICS = {
    "submit_seconds": "pool.submit_seconds",
    "wait_seconds": "pool.wait_seconds",
}


@pytest.fixture(scope="module")
def db():
    return generate_tpch(scale=1.0, z=1.5, rows_per_scale=ROWS, seed=30)


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _overhead_snapshot() -> dict[str, float]:
    """Scatter-overhead seconds since the last registry reset (histogram
    sums; zero when an instrument never fired)."""
    histograms = get_registry().snapshot()["histograms"]
    return {
        key: round(float(histograms.get(name, {}).get("sum") or 0.0), 6)
        for key, name in _OVERHEAD_METRICS.items()
    }


def test_parallel_scaling(db):
    view = db.joined_view()

    def run_preprocessing(options):
        return collect_column_stats(view, options=options)

    # Serial baseline (the denominator for every speedup).
    serial_options = ExecutionOptions(max_workers=1, chunk_rows=8192)
    serial_stats = run_preprocessing(serial_options)
    serial_preprocess = _best_of(lambda: run_preprocessing(serial_options))

    preprocess_seconds: dict[int, float] = {}
    overheads: dict[str, float] = {}
    for workers in WORKER_COUNTS:
        options = ExecutionOptions(max_workers=workers, chunk_rows=8192)

        # Correctness gate (unconditional): identical pre-processing
        # statistics at every worker count.  This untimed run also warms
        # the pool so the timed runs measure steady state.
        stats = run_preprocessing(options)
        assert set(stats) == set(serial_stats), workers
        for name, column_stats in serial_stats.items():
            assert stats[name].frequencies == column_stats.frequencies, (
                workers,
                name,
            )

        if workers == 4:
            get_registry().reset()
        preprocess_seconds[workers] = _best_of(
            lambda options=options: run_preprocessing(options)
        )
        if workers == 4:
            overheads = _overhead_snapshot()
    shutdown_pool()

    payload = {
        "benchmark": "parallel_scaling",
        "version": 4,
        "fact_rows": db.fact_table.n_rows,
        "repeats": REPEATS,
        "cpu_count": os.cpu_count() or 1,
        "worker_counts": list(WORKER_COUNTS),
        "serial_preprocess_seconds": round(serial_preprocess, 6),
        "preprocess_seconds": {
            str(w): round(s, 6) for w, s in preprocess_seconds.items()
        },
        "preprocess_speedup_at_4": round(
            serial_preprocess / preprocess_seconds[4], 3
        ),
        "scatter_overhead_seconds_at_4": overheads,
        "stats_identical_across_workers": True,
    }
    out = Path(__file__).resolve().parents[1] / "BENCH_parallel.json"
    out.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")
