"""Micro-benchmarks of the engine substrate (multi-round timings).

These are classic pytest-benchmark timings (not paper figures): group-by
aggregation throughput, star-join resolution, predicate evaluation, the
small-group rewrite overhead, and pre-processing.  They guard the cost
model the speedup experiments rely on (time ∝ rows scanned).
"""

import pytest

from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.datagen.tpch import generate_tpch
from repro.engine.executor import aggregate_table, execute
from repro.engine.expressions import AggFunc, AggregateSpec, InSet, Query
from repro.sql import parse_query

COUNT = AggregateSpec(AggFunc.COUNT, alias="cnt")


@pytest.fixture(scope="module")
def db():
    return generate_tpch(scale=1.0, z=1.5, rows_per_scale=60000, seed=30)


@pytest.fixture(scope="module")
def view(db):
    return db.joined_view()


@pytest.fixture(scope="module")
def sg(db):
    technique = SmallGroupSampling(
        SmallGroupConfig(base_rate=0.04, use_reservoir=False)
    )
    technique.preprocess(db)
    return technique


def test_groupby_count_throughput(benchmark, view):
    query = Query("lineitem", (COUNT,), ("l_shipmode", "l_returnflag"))
    result = benchmark(aggregate_table, view, query)
    assert result.total() == view.n_rows


def test_groupby_sum_with_predicate(benchmark, view):
    query = Query(
        "lineitem",
        (AggregateSpec(AggFunc.SUM, "l_extendedprice", alias="s"),),
        ("p_brand",),
        where=InSet("s_region", ["s_region_000", "s_region_001"]),
    )
    result = benchmark(aggregate_table, view, query)
    assert result.n_groups > 0


def test_star_join_execution(benchmark, db):
    query = Query(
        "lineitem", (COUNT,), ("p_brand", "o_custnation")
    )
    result = benchmark(execute, db, query)
    assert result.total() == db.fact_table.n_rows


def test_smallgroup_answer_latency(benchmark, sg):
    query = Query("lineitem", (COUNT,), ("l_shipmode", "p_brand"))
    answer = benchmark(sg.answer, query)
    assert answer.n_groups > 0


def test_sql_parse_throughput(benchmark):
    sql = (
        "SELECT p_brand, l_shipmode, COUNT(*) AS cnt FROM lineitem "
        "WHERE s_nation IN ('s_nation_000', 's_nation_001') "
        "AND l_quantity BETWEEN 1 AND 10 GROUP BY p_brand, l_shipmode"
    )
    query = benchmark(parse_query, sql)
    assert query.group_by == ("p_brand", "l_shipmode")


def test_preprocessing_latency(benchmark, db):
    def build():
        technique = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.01, use_reservoir=False)
        )
        technique.preprocess(db)
        return technique

    technique = benchmark.pedantic(build, rounds=3, iterations=1)
    assert technique.metadata()


def test_table_save_load_roundtrip(benchmark, sg, tmp_path_factory):
    from repro.storage import load_table, save_table

    table = sg.sample_catalog().table("sg_overall")
    directory = tmp_path_factory.mktemp("bench_storage")

    def roundtrip():
        path = save_table(table, directory / "overall.npz")
        return load_table(path)

    loaded = benchmark(roundtrip)
    assert loaded.n_rows == table.n_rows


def test_middleware_sql_latency(benchmark, db, sg):
    from repro.middleware import AQPSession

    session = AQPSession(db, sg)
    sql = (
        "SELECT l_shipmode, p_brand, COUNT(*) AS cnt FROM lineitem "
        "GROUP BY l_shipmode, p_brand"
    )
    result = benchmark(session.sql, sql)
    assert result.approx is not None and result.approx.n_groups > 0


REPEATED_WORKLOAD_SQLS = [
    "SELECT l_shipmode, COUNT(*) AS cnt FROM lineitem GROUP BY l_shipmode",
    "SELECT p_brand, COUNT(*) AS cnt, SUM(l_extendedprice) AS s "
    "FROM lineitem GROUP BY p_brand",
    "SELECT o_custnation, l_returnflag, COUNT(*) AS cnt FROM lineitem "
    "GROUP BY o_custnation, l_returnflag",
    "SELECT o_custnation, SUM(l_quantity) AS q FROM lineitem "
    "WHERE l_shipmode IN ('l_shipmode_000', 'l_shipmode_001') "
    "GROUP BY o_custnation",
    "SELECT p_brand, l_returnflag, AVG(l_extendedprice) AS a FROM lineitem "
    "GROUP BY p_brand, l_returnflag",
]


def test_repeated_workload_cache_speedup(db, sg):
    """100-query repeated group-by stream: warm cache vs per-query cold.

    Each query is served in ``mode="both"`` — the approximate answer plus
    the exact audit answer, the shape the experiments use to measure
    error — so the stream exercises every cache layer: the parse memo
    on the approximate side, join-position, predicate-mask and
    group-code memos on the exact side.  The cold pass clears the
    per-column memos and the session parse memo before every query — the seed
    executor's effective behaviour; the warm pass reuses them across the
    stream.  Both answers must match the cold pass on every query, and
    the warm stream must be at least 3x faster.  Emits
    ``BENCH_engine_cache.json`` (queries/sec cold vs warm) at the repo
    root for future perf comparisons.

    Also measures profiling overhead: the warm stream with
    ``profile=True`` must stay within 5% of the unprofiled warm
    wall-clock and byte-identical in its answers — the observability
    acceptance criterion.  The two sides are timed in strict
    per-query alternation (unprofiled, then profiled, same query),
    which cancels the machine drift that whole-pass comparisons on a
    shared box cannot.  The pairs start from a collected heap, so a
    full garbage collection made due by the earlier passes (and by the
    tests before this one) cannot land on one side of a single pair.
    """
    import gc
    import json
    import time
    from pathlib import Path

    from repro.engine.cache import get_cache
    from repro.middleware import AQPSession

    stream = [
        REPEATED_WORKLOAD_SQLS[i % len(REPEATED_WORKLOAD_SQLS)]
        for i in range(100)
    ]
    cache = get_cache()

    def run(session, cold, profile=False):
        answers = []
        start = time.perf_counter()
        for sql in stream:
            if cold:
                cache.clear()
                session._parse_memo.clear()
            result = session.sql(sql, mode="both", profile=profile)
            approx = result.approx
            answers.append(
                (
                    {
                        group: tuple(e.value for e in estimates)
                        for group, estimates in approx.groups.items()
                    },
                    result.exact.rows,
                )
            )
        return answers, time.perf_counter() - start

    cold_answers, cold_seconds = run(AQPSession(db, sg), cold=True)
    cache.clear()
    cache.metrics.reset()
    warm_answers, warm_seconds = run(AQPSession(db, sg), cold=False)

    assert warm_answers == cold_answers  # identical, query for query
    speedup = cold_seconds / warm_seconds

    # Profiling overhead, paired per query so machine drift cancels.
    profiled_answers, _ = run(AQPSession(db, sg), cold=False, profile=True)
    assert profiled_answers == cold_answers  # answer-neutral
    session = AQPSession(db, sg)
    for sql in stream:  # warm this session's memos first
        session.sql(sql, mode="both")
    gc.collect()
    paired_warm = paired_profiled = 0.0
    for _ in range(3):
        for sql in stream:
            t0 = time.perf_counter()
            session.sql(sql, mode="both")
            t1 = time.perf_counter()
            session.sql(sql, mode="both", profile=True)
            t2 = time.perf_counter()
            paired_warm += t1 - t0
            paired_profiled += t2 - t1
    profiling_overhead = paired_profiled / paired_warm - 1.0

    payload = {
        "benchmark": "repeated_workload_cache",
        "mode": "both",
        "queries": len(stream),
        "distinct_queries": len(REPEATED_WORKLOAD_SQLS),
        "fact_rows": db.fact_table.n_rows,
        "cold_seconds": round(cold_seconds, 6),
        "warm_seconds": round(warm_seconds, 6),
        "cold_qps": round(len(stream) / cold_seconds, 3),
        "warm_qps": round(len(stream) / warm_seconds, 3),
        "speedup": round(speedup, 3),
        "paired_warm_seconds": round(paired_warm, 6),
        "paired_profiled_seconds": round(paired_profiled, 6),
        "profiling_overhead": round(profiling_overhead, 4),
        "cache_metrics": cache.metrics.snapshot(),
    }
    out = Path(__file__).resolve().parents[1] / "BENCH_engine_cache.json"
    out.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    assert speedup >= 3.0, payload
    assert profiling_overhead < 0.05, payload
