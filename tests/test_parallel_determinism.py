"""Determinism of parallel execution: answers are identical at every
worker count.

The engine's contract (docs/internals.md §8) is that ``max_workers`` is
a pure throughput knob: the scatter/gather combines partial results in
piece/chunk-index order, so every estimate, variance, and confidence
interval is byte-identical whether the work ran on 1, 2, or 8 threads.
These tests pin that contract for the small-group path, the congress
baseline, the exact executor, pre-processing, and concurrent middleware
sessions.
"""

from __future__ import annotations

import threading

import pytest

from repro.baselines.congress import BasicCongress, CongressConfig
from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.engine.executor import execute
from repro.engine.parallel import (
    ExecutionOptions,
    set_default_options,
    shutdown_pool,
)
from repro.engine.stats import collect_column_stats
from repro.middleware.session import AQPSession
from repro.sql.parser import parse_query

WORKER_COUNTS = (1, 2, 8)

SG_SQL = (
    "SELECT l_shipmode, p_brand, COUNT(*) AS cnt, SUM(l_quantity) AS qty "
    "FROM lineitem GROUP BY l_shipmode, p_brand"
)
CONGRESS_SQL = (
    "SELECT color, shape, COUNT(*) AS cnt, AVG(amount) AS avg_amount "
    "FROM flat GROUP BY color, shape"
)
SG_POINT_SQL = (
    "SELECT l_shipmode, COUNT(*) AS cnt, SUM(l_quantity) AS qty "
    "FROM lineitem WHERE p_brand = 'p_brand_000' GROUP BY l_shipmode"
)
SG_RANGE_SQL = (
    "SELECT p_brand, COUNT(*) AS cnt FROM lineitem "
    "WHERE l_quantity BETWEEN 5 AND 9 GROUP BY p_brand"
)


@pytest.fixture()
def worker_sweep():
    """Run a callable under each worker count via the process defaults."""

    previous = None

    def sweep(answer_fn):
        nonlocal previous
        answers = {}
        for workers in WORKER_COUNTS:
            before = set_default_options(
                ExecutionOptions(max_workers=workers, chunk_rows=512)
            )
            if previous is None:
                previous = before
            answers[workers] = answer_fn()
        return answers

    yield sweep
    if previous is not None:
        set_default_options(previous)
    shutdown_pool()


def assert_identical_answers(answers):
    """Every answer must match the serial one exactly — not approximately."""
    base = answers[1]
    for workers, answer in answers.items():
        assert answer.group_columns == base.group_columns, workers
        assert answer.aggregate_names == base.aggregate_names, workers
        assert set(answer.groups) == set(base.groups), workers
        for group, estimates in base.groups.items():
            others = answer.groups[group]
            for mine, other in zip(estimates, others):
                assert other.value == mine.value, (workers, group)
                assert other.variance == mine.variance, (workers, group)
                assert other.exact == mine.exact, (workers, group)
                assert other.confidence_interval() == (
                    mine.confidence_interval()
                ), (workers, group)
        assert answer.rows_scanned == base.rows_scanned, workers


class TestSmallGroupDeterminism:
    def test_answers_identical_across_worker_counts(
        self, tiny_tpch, worker_sweep
    ):
        technique = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.05, seed=7, use_reservoir=False)
        )
        technique.preprocess(tiny_tpch)
        query = parse_query(SG_SQL)
        assert_identical_answers(worker_sweep(lambda: technique.answer(query)))

    def test_preprocessing_identical_across_worker_counts(self, tiny_tpch):
        # Build the sample layout serially and with a chunked parallel
        # scan; the stored samples (and therefore any answer) must match.
        query = parse_query(SG_SQL)
        answers = {}
        for workers in (1, 4):
            technique = SmallGroupSampling(
                SmallGroupConfig(base_rate=0.05, seed=7, use_reservoir=False),
                options=ExecutionOptions(max_workers=workers, chunk_rows=512),
            )
            technique.preprocess(tiny_tpch)
            answers[workers] = technique.answer(query)
        shutdown_pool()
        assert_identical_answers(answers)


class TestCongressDeterminism:
    def test_answers_identical_across_worker_counts(
        self, flat_db, worker_sweep
    ):
        technique = BasicCongress(CongressConfig(rates=(0.05,), seed=3))
        technique.preprocess(flat_db)
        query = parse_query(CONGRESS_SQL)
        assert_identical_answers(worker_sweep(lambda: technique.answer(query)))


class TestExactExecutorDeterminism:
    def test_star_join_results_identical(self, tiny_tpch):
        query = parse_query(
            "SELECT s_region, o_custregion, COUNT(*) AS cnt, "
            "SUM(l_quantity) AS qty FROM lineitem "
            "GROUP BY s_region, o_custregion"
        )
        serial = execute(tiny_tpch, query, options=ExecutionOptions())
        parallel = execute(
            tiny_tpch,
            query,
            options=ExecutionOptions(max_workers=4, chunk_rows=512),
        )
        shutdown_pool()
        assert parallel.rows == serial.rows


class TestPreprocessingScanDeterminism:
    def test_chunked_stats_match_serial(self, flat_db):
        table = flat_db.fact_table
        serial = collect_column_stats(table, options=ExecutionOptions())
        chunked = collect_column_stats(
            table,
            options=ExecutionOptions(max_workers=4, chunk_rows=333),
        )
        shutdown_pool()
        assert set(chunked) == set(serial)
        for name, stats in serial.items():
            assert chunked[name].kind is stats.kind
            assert chunked[name].frequencies == stats.frequencies


class TestSkippingDeterminism:
    """Zone-map data skipping (docs/internals.md §9) is a pure throughput
    knob, exactly like ``max_workers`` and ``chunk_rows``: refuted chunks
    contribute no rows either way, accepted chunks are all-true either
    way, so every estimate, variance, CI, and ``rows_scanned`` is
    byte-identical with skipping on or off at any chunk layout."""

    CONFIGS = tuple(
        ExecutionOptions(max_workers=w, chunk_rows=c, data_skipping=s)
        for s in (True, False)
        for c in (512, 100_000)
        for w in (1, 4)
    )

    @pytest.mark.parametrize("sql", (SG_POINT_SQL, SG_RANGE_SQL))
    def test_small_group_answers_identical(self, tiny_tpch, sql):
        technique = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.05, seed=7, use_reservoir=False)
        )
        technique.preprocess(tiny_tpch)
        query = parse_query(sql)
        answers = {}
        previous = None
        for index, options in enumerate(self.CONFIGS, start=1):
            before = set_default_options(options)
            if previous is None:
                previous = before
            answers[index] = technique.answer(query)
        set_default_options(previous)
        shutdown_pool()
        assert_identical_answers(answers)

    def test_exact_executor_identical(self, tiny_tpch):
        query = parse_query(
            "SELECT s_region, COUNT(*) AS cnt, SUM(l_quantity) AS qty "
            "FROM lineitem WHERE l_quantity BETWEEN 5 AND 9 "
            "GROUP BY s_region"
        )
        results = [
            execute(tiny_tpch, query, options=options)
            for options in self.CONFIGS
        ]
        shutdown_pool()
        for result in results[1:]:
            assert result.rows == results[0].rows
            assert result.raw_counts == results[0].raw_counts


class TestExecutorBackendDeterminism:
    """The serial loop (``max_workers=1``) and the thread pool scatter
    the same deterministic work lists and gather in the same submission
    order, so every estimate, variance, CI, and ``rows_scanned`` is
    byte-identical between them at any worker count and chunk layout."""

    CONFIGS = tuple(
        ExecutionOptions(max_workers=w, chunk_rows=c)
        for w in (1, 2, 4, 8)
        for c in (512, 2048)
    )

    def _sweep(self, answer_fn):
        answers = {}
        previous = None
        for index, options in enumerate(self.CONFIGS, start=1):
            before = set_default_options(options)
            if previous is None:
                previous = before
            answers[index] = answer_fn()
        set_default_options(previous)
        shutdown_pool()
        return answers

    def test_small_group_answers_identical(self, tiny_tpch):
        technique = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.05, seed=7, use_reservoir=False)
        )
        technique.preprocess(tiny_tpch)
        query = parse_query(SG_SQL)
        assert_identical_answers(self._sweep(lambda: technique.answer(query)))

    def test_congress_answers_identical(self, flat_db):
        technique = BasicCongress(CongressConfig(rates=(0.05,), seed=3))
        technique.preprocess(flat_db)
        query = parse_query(CONGRESS_SQL)
        assert_identical_answers(self._sweep(lambda: technique.answer(query)))

    def test_exact_executor_identical(self, tiny_tpch):
        query = parse_query(
            "SELECT s_region, o_custregion, COUNT(*) AS cnt, "
            "SUM(l_quantity) AS qty FROM lineitem "
            "GROUP BY s_region, o_custregion"
        )
        results = [
            execute(tiny_tpch, query, options=options)
            for options in self.CONFIGS
        ]
        shutdown_pool()
        for result in results[1:]:
            assert result.rows == results[0].rows
            assert result.raw_counts == results[0].raw_counts

    def test_preprocessing_stats_identical(self, flat_db):
        table = flat_db.fact_table
        results = [
            collect_column_stats(table, options=options)
            for options in self.CONFIGS
        ]
        shutdown_pool()
        serial = results[0]
        for stats in results[1:]:
            assert set(stats) == set(serial)
            for name, column_stats in serial.items():
                assert stats[name].kind is column_stats.kind
                assert stats[name].frequencies == column_stats.frequencies

    def test_preprocessing_build_identical_across_backends(self, tiny_tpch):
        # Build the sample layout serially and on the thread pool; the
        # stored samples (and therefore any answer) must match exactly.
        query = parse_query(SG_SQL)
        answers = {}
        for index, workers in enumerate((1, 4)):
            technique = SmallGroupSampling(
                SmallGroupConfig(base_rate=0.05, seed=7, use_reservoir=False),
                options=ExecutionOptions(max_workers=workers, chunk_rows=512),
            )
            technique.preprocess(tiny_tpch)
            answers[index + 1] = technique.answer(query)
        shutdown_pool()
        assert_identical_answers(answers)


class TestConcurrentSessions:
    def test_concurrent_sql_matches_serial_answers(self, tiny_tpch):
        technique = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.05, seed=7, use_reservoir=False)
        )
        technique.preprocess(tiny_tpch)
        session = AQPSession(
            tiny_tpch,
            technique,
            options=ExecutionOptions(max_workers=2, chunk_rows=512),
        )
        sqls = [
            SG_SQL,
            "SELECT l_shipmode, COUNT(*) AS cnt FROM lineitem "
            "GROUP BY l_shipmode",
            "SELECT p_brand, SUM(l_quantity) AS qty FROM lineitem "
            "GROUP BY p_brand",
        ]
        expected = {sql: session.sql(sql).approx for sql in sqls}

        n_threads = 8
        rounds = 4
        results: dict[tuple[int, int], object] = {}
        errors: list[BaseException] = []
        barrier = threading.Barrier(n_threads)

        def worker(thread_index: int) -> None:
            try:
                barrier.wait()
                for round_index in range(rounds):
                    sql = sqls[(thread_index + round_index) % len(sqls)]
                    results[(thread_index, round_index)] = (
                        sql,
                        session.sql(sql).approx,
                    )
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        shutdown_pool()

        assert errors == []
        assert len(results) == n_threads * rounds
        for sql, answer in results.values():
            assert answer.groups == expected[sql].groups
        # The log recorded every query exactly once (no lost appends).
        assert session.query_count == len(sqls) + n_threads * rounds
