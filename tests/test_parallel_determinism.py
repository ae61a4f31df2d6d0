"""Determinism of execution: answers are identical at every chunk layout.

The engine's contract (docs/internals.md §8) is that ``chunk_rows`` and
``data_skipping`` are pure cost knobs: partial results combine in
piece/chunk-index order, so every estimate, variance, and confidence
interval is byte-identical whatever the chunk layout and whether zone
maps skip chunks or not.  These tests pin that contract for the
small-group path, the congress baseline, the exact executor, and
concurrent middleware sessions.
"""

from __future__ import annotations

import threading

import pytest

from repro.baselines.congress import BasicCongress, CongressConfig
from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.engine.executor import execute
from repro.engine.parallel import ExecutionOptions, set_default_options
from repro.middleware.session import AQPSession
from repro.sql.parser import parse_query

CHUNK_LAYOUTS = (512, 2048, 100_000)

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
def layout_sweep():
    """Run a callable under each chunk layout via the process defaults."""

    previous = None

    def sweep(answer_fn):
        nonlocal previous
        answers = {}
        for index, chunk_rows in enumerate(CHUNK_LAYOUTS, start=1):
            before = set_default_options(ExecutionOptions(chunk_rows=chunk_rows))
            if previous is None:
                previous = before
            answers[index] = answer_fn()
        return answers

    yield sweep
    if previous is not None:
        set_default_options(previous)


def assert_identical_answers(answers):
    """Every answer must match the first one exactly — not approximately."""
    base = answers[1]
    for config, answer in answers.items():
        assert answer.group_columns == base.group_columns, config
        assert answer.aggregate_names == base.aggregate_names, config
        assert set(answer.groups) == set(base.groups), config
        for group, estimates in base.groups.items():
            others = answer.groups[group]
            for mine, other in zip(estimates, others):
                assert other.value == mine.value, (config, group)
                assert other.variance == mine.variance, (config, group)
                assert other.exact == mine.exact, (config, group)
                assert other.confidence_interval() == (
                    mine.confidence_interval()
                ), (config, group)
        assert answer.rows_scanned == base.rows_scanned, config


class TestSmallGroupDeterminism:
    def test_answers_identical_across_chunk_layouts(
        self, tiny_tpch, layout_sweep
    ):
        technique = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.05, seed=7, use_reservoir=False)
        )
        technique.preprocess(tiny_tpch)
        query = parse_query(SG_SQL)
        assert_identical_answers(layout_sweep(lambda: technique.answer(query)))

class TestCongressDeterminism:
    def test_answers_identical_across_chunk_layouts(
        self, flat_db, layout_sweep
    ):
        technique = BasicCongress(CongressConfig(rates=(0.05,), seed=3))
        technique.preprocess(flat_db)
        query = parse_query(CONGRESS_SQL)
        assert_identical_answers(layout_sweep(lambda: technique.answer(query)))


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
            options=ExecutionOptions(chunk_rows=512),
        )
        assert parallel.rows == serial.rows


class TestSkippingDeterminism:
    """Zone-map data skipping (docs/internals.md §9) is a pure throughput
    knob, exactly like ``chunk_rows``: refuted chunks
    contribute no rows either way, accepted chunks are all-true either
    way, so every estimate, variance, CI, and ``rows_scanned`` is
    byte-identical with skipping on or off at any chunk layout."""

    CONFIGS = tuple(
        ExecutionOptions(chunk_rows=c, data_skipping=s)
        for s in (True, False)
        for c in (512, 100_000)
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
        for result in results[1:]:
            assert result.rows == results[0].rows
            assert result.raw_counts == results[0].raw_counts


class TestConcurrentSessions:
    def test_concurrent_sql_matches_serial_answers(self, tiny_tpch):
        technique = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.05, seed=7, use_reservoir=False)
        )
        technique.preprocess(tiny_tpch)
        session = AQPSession(
            tiny_tpch,
            technique,
            options=ExecutionOptions(chunk_rows=512),
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

        assert errors == []
        assert len(results) == n_threads * rounds
        for sql, answer in results.values():
            assert answer.groups == expected[sql].groups
        # The log recorded every query exactly once (no lost appends).
        assert session.query_count == len(sqls) + n_threads * rounds
