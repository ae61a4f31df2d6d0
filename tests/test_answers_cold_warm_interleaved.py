"""Determinism of execution: answers are identical cold, warm and concurrent.

The engine's contract (docs/internals.md §8) is that the per-column
memos are a pure cost knob: partial results combine in piece order, so every
estimate, variance, and confidence interval is byte-identical whether
the cached masks, codes and join positions were built by this query or
an earlier one.  These tests pin that contract for the small-group path,
the congress baseline, the exact executor, and concurrent middleware
sessions.
"""

from __future__ import annotations

import threading

from repro.baselines.congress import BasicCongress, CongressConfig
from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.engine.cache import get_cache
from repro.engine.executor import execute
from repro.middleware.session import AQPSession
from repro.sql.parser import parse_query

SG_SQL = (
    "SELECT l_shipmode, p_brand, COUNT(*) AS cnt, SUM(l_quantity) AS qty "
    "FROM lineitem GROUP BY l_shipmode, p_brand"
)
CONGRESS_SQL = (
    "SELECT color, shape, COUNT(*) AS cnt, AVG(amount) AS avg_amount "
    "FROM flat GROUP BY color, shape"
)


def cold_and_warm(answer_fn):
    """Answer once on cleared memos, then twice warm."""
    get_cache().clear()
    return {index: answer_fn() for index in (1, 2, 3)}


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
    def test_answers_identical_cold_and_warm(self, tiny_tpch):
        technique = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.05, seed=7, use_reservoir=False)
        )
        technique.preprocess(tiny_tpch)
        query = parse_query(SG_SQL)
        assert_identical_answers(cold_and_warm(lambda: technique.answer(query)))


class TestCongressDeterminism:
    def test_answers_identical_cold_and_warm(self, flat_db):
        technique = BasicCongress(CongressConfig(rates=(0.05,), seed=3))
        technique.preprocess(flat_db)
        query = parse_query(CONGRESS_SQL)
        assert_identical_answers(cold_and_warm(lambda: technique.answer(query)))


class TestExactExecutorDeterminism:
    def test_star_join_results_identical(self, tiny_tpch):
        query = parse_query(
            "SELECT s_region, o_custregion, COUNT(*) AS cnt, "
            "SUM(l_quantity) AS qty FROM lineitem "
            "GROUP BY s_region, o_custregion"
        )
        get_cache().clear()
        cold = execute(tiny_tpch, query)
        warm = execute(tiny_tpch, query)
        assert warm.rows == cold.rows
        assert warm.keys == cold.keys
        assert warm.raw_counts.tolist() == cold.raw_counts.tolist()


class TestConcurrentSessions:
    def test_concurrent_sql_matches_serial_answers(self, tiny_tpch):
        technique = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.05, seed=7, use_reservoir=False)
        )
        technique.preprocess(tiny_tpch)
        session = AQPSession(tiny_tpch, technique)
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
