"""Scaling benchmark for the parallel execution subsystem.

Measures cold-workload wall time for (a) piece execution — the §4.2.2
UNION ALL scatter — and (b) the chunked pre-processing scans, on the
thread pool at 1/2/4/8 workers against a serial baseline, and emits
``BENCH_parallel.json`` (v3) at the repo root.

Two different assertions:

* **Correctness is unconditional**: the answers must be byte-identical
  at every worker count (the determinism contract of
  ``docs/internals.md`` §8).
* **Throughput is hardware-gated**: speedup bars only apply when the
  machine actually has the cores — workers cannot beat the clock on a
  single CPU.  Every gate's outcome (pass value or an explicit
  ``"skipped (...)"`` string) is recorded in the JSON's ``gates``
  object, so a skip is visible in the trajectory file instead of
  silently absent, and the pytest skip carries the same reason.

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

from repro.core.combiner import execute_pieces
from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.datagen.tpch import generate_tpch
from repro.engine.parallel import ExecutionOptions, shutdown_pool
from repro.engine.stats import collect_column_stats
from repro.obs.registry import get_registry
from repro.sql import parse_query

WORKER_COUNTS = (1, 2, 4, 8)
BACKENDS = ("thread",)
ROWS = int(os.environ.get("REPRO_BENCH_ROWS", "60000"))
REPEATS = 3

#: Histogram names whose sums make up each backend's scatter overhead.
_OVERHEAD_METRICS = {
    "thread": {
        "submit_seconds": "pool.submit_seconds",
        "wait_seconds": "pool.wait_seconds",
    },
}

SQLS = [
    "SELECT l_shipmode, p_brand, COUNT(*) AS cnt, SUM(l_quantity) AS qty "
    "FROM lineitem GROUP BY l_shipmode, p_brand",
    "SELECT o_custnation, l_returnflag, COUNT(*) AS cnt FROM lineitem "
    "GROUP BY o_custnation, l_returnflag",
    "SELECT p_brand, AVG(l_extendedprice) AS a FROM lineitem "
    "GROUP BY p_brand",
]


@pytest.fixture(scope="module")
def db():
    return generate_tpch(scale=1.0, z=1.5, rows_per_scale=ROWS, seed=30)


@pytest.fixture(scope="module")
def sg(db):
    technique = SmallGroupSampling(
        SmallGroupConfig(base_rate=0.04, use_reservoir=False)
    )
    technique.preprocess(db)
    return technique


def _answer_signature(answer):
    """Exact (not approximate) content of an answer, for identity checks."""
    return (
        answer.group_columns,
        answer.aggregate_names,
        {
            group: tuple((e.value, e.variance, e.exact) for e in estimates)
            for group, estimates in answer.groups.items()
        },
    )


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _overhead_snapshot(backend: str) -> dict[str, float]:
    """Scatter-overhead seconds for ``backend`` since the last registry
    reset (histogram sums; zero when an instrument never fired)."""
    histograms = get_registry().snapshot()["histograms"]
    return {
        key: round(float(histograms.get(name, {}).get("sum") or 0.0), 6)
        for key, name in _OVERHEAD_METRICS[backend].items()
    }


def test_parallel_scaling(db, sg):
    queries = [parse_query(sql) for sql in SQLS]
    plans = [sg.choose_samples(query) for query in queries]
    view = db.joined_view()

    def run_execution(options):
        return [
            execute_pieces(pieces, technique=sg.name, options=options)
            for pieces in plans
        ]

    def run_preprocessing(options):
        return collect_column_stats(view, options=options)

    # Serial baseline (the denominator for every speedup).
    serial_options = ExecutionOptions(max_workers=1, chunk_rows=8192)
    serial_signatures = [
        _answer_signature(a) for a in run_execution(serial_options)
    ]
    serial_stats = run_preprocessing(serial_options)
    serial_execution = _best_of(lambda: run_execution(serial_options))
    serial_preprocess = _best_of(lambda: run_preprocessing(serial_options))

    execution_seconds: dict[str, dict[int, float]] = {}
    preprocess_seconds: dict[str, dict[int, float]] = {}
    overheads: dict[str, dict[str, float]] = {}

    for backend in BACKENDS:
        execution_seconds[backend] = {}
        preprocess_seconds[backend] = {}
        for workers in WORKER_COUNTS:
            options = ExecutionOptions(max_workers=workers, chunk_rows=8192)

            # Correctness gate (unconditional): byte-identical answers
            # and identical pre-processing statistics at every worker
            # count.  These untimed runs
            # also warm the pools so the timed runs measure steady state.
            signatures = [
                _answer_signature(a) for a in run_execution(options)
            ]
            assert signatures == serial_signatures, (backend, workers)
            stats = run_preprocessing(options)
            assert set(stats) == set(serial_stats), (backend, workers)
            for name, column_stats in serial_stats.items():
                assert stats[name].frequencies == column_stats.frequencies, (
                    backend,
                    workers,
                    name,
                )

            if workers == 4:
                get_registry().reset()
            execution_seconds[backend][workers] = _best_of(
                lambda options=options: run_execution(options)
            )
            preprocess_seconds[backend][workers] = _best_of(
                lambda options=options: run_preprocessing(options)
            )
            if workers == 4:
                overheads[backend] = _overhead_snapshot(backend)
    shutdown_pool()

    cpu_count = os.cpu_count() or 1
    speedups = {
        backend: {
            "execution_at_4": round(
                serial_execution / execution_seconds[backend][4], 3
            ),
            "preprocess_at_4": round(
                serial_preprocess / preprocess_seconds[backend][4], 3
            ),
        }
        for backend in BACKENDS
    }

    # Hardware-dependent throughput gates.  Outcomes are recorded
    # explicitly: a number means the bar applied (and passed, or the
    # assert below fails); a "skipped (...)" string says exactly why the
    # bar did not apply on this box.
    gates: dict[str, object] = {}
    if cpu_count >= 4:
        gates["thread_execution_speedup_at_4_ge_1.6"] = speedups["thread"][
            "execution_at_4"
        ]
    else:
        gates["thread_execution_speedup_at_4_ge_1.6"] = (
            f"skipped (cpu_count={cpu_count})"
        )

    payload = {
        "benchmark": "parallel_scaling",
        "version": 3,
        "fact_rows": db.fact_table.n_rows,
        "queries": len(SQLS),
        "repeats": REPEATS,
        "cpu_count": cpu_count,
        "worker_counts": list(WORKER_COUNTS),
        "backends": list(BACKENDS),
        "serial_execution_seconds": round(serial_execution, 6),
        "serial_preprocess_seconds": round(serial_preprocess, 6),
        "execution_seconds": {
            backend: {str(w): round(s, 6) for w, s in by_workers.items()}
            for backend, by_workers in execution_seconds.items()
        },
        "preprocess_seconds": {
            backend: {str(w): round(s, 6) for w, s in by_workers.items()}
            for backend, by_workers in preprocess_seconds.items()
        },
        "speedups_vs_serial": speedups,
        "scatter_overhead_seconds_at_4": overheads,
        "gates": gates,
        "answers_identical_across_backends_and_workers": True,
    }
    out = Path(__file__).resolve().parents[1] / "BENCH_parallel.json"
    out.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")

    # Enforce whichever gates applied; skip visibly when none did (the
    # JSON above is already written either way).
    applied = {
        name: value
        for name, value in gates.items()
        if not isinstance(value, str)
    }
    if "thread_execution_speedup_at_4_ge_1.6" in applied:
        assert applied["thread_execution_speedup_at_4_ge_1.6"] >= 1.6, payload
    if not applied:
        pytest.skip(
            "all throughput gates skipped: "
            + "; ".join(
                f"{name}: {value}" for name, value in sorted(gates.items())
            )
        )
