"""Tests for the AQP middleware session."""

import time

import pytest

from repro.baselines.congress import BasicCongress, CongressConfig
from repro.baselines.icicles import IciclesConfig, IciclesSampling
from repro.baselines.outlier import OutlierConfig, OutlierIndexing
from repro.baselines.uniform import UniformConfig, UniformSampling
from repro.core import combiner
from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.engine.deadline import Deadline
from repro.errors import DeadlineExceeded, RuntimePhaseError
from repro.middleware import AQPSession
from repro.server.protocol import answer_fingerprint, encode_approx
from repro.sql.parser import parse_query
from repro.workload.generator import generate_workload
from repro.workload.spec import WorkloadConfig

SQL_COUNT = (
    "SELECT l_shipmode, COUNT(*) AS cnt FROM lineitem GROUP BY l_shipmode"
)
SQL_FILTERED = (
    "SELECT p_brand, COUNT(*) AS cnt FROM lineitem "
    "WHERE s_region IN ('s_region_000') GROUP BY p_brand"
)


@pytest.fixture()
def session(tiny_tpch):
    session = AQPSession(tiny_tpch)
    session.install(
        SmallGroupSampling(
            SmallGroupConfig(base_rate=0.05, use_reservoir=False)
        )
    )
    return session


class TestModes:
    def test_approx_mode(self, session):
        result = session.sql(SQL_COUNT)
        assert result.approx is not None
        assert result.exact is None
        assert result.approx.n_groups > 0
        assert result.approx_seconds > 0

    def test_exact_mode_without_technique(self, tiny_tpch):
        session = AQPSession(tiny_tpch)
        result = session.sql(SQL_COUNT, mode="exact")
        assert result.exact is not None
        assert result.approx is None

    def test_both_mode_speedup(self, session):
        result = session.sql(SQL_COUNT, mode="both")
        assert result.approx is not None and result.exact is not None
        assert result.speedup > 0

    def test_invalid_mode(self, session):
        with pytest.raises(RuntimePhaseError):
            session.sql(SQL_COUNT, mode="fast")

    def test_approx_without_technique(self, tiny_tpch):
        session = AQPSession(tiny_tpch)
        with pytest.raises(RuntimePhaseError, match="install"):
            session.sql(SQL_COUNT)

    def test_install_reports(self, tiny_tpch):
        session = AQPSession(tiny_tpch)
        report = session.install(
            SmallGroupSampling(
                SmallGroupConfig(base_rate=0.05, use_reservoir=False)
            )
        )
        assert report.sample_rows > 0
        assert session.report is report


class TestRendering:
    def test_to_text_contains_groups_and_ci(self, session):
        result = session.sql(SQL_COUNT, mode="both")
        text = result.to_text()
        assert "approximate answer" in text
        assert "95% CI" in text
        assert "speedup" in text

    def test_explain_lists_pieces(self, session):
        text = session.explain(SQL_FILTERED)
        assert "pieces:" in text
        assert "sg_overall" in text
        assert "rewritten SQL" in text
        assert "UNION ALL" in text or "SELECT" in text

    def test_sql_explain_renders_rewritten_sql(self, session):
        result = session.sql(SQL_FILTERED, explain=True)
        text = result.to_text()
        assert "rewritten SQL:" in text
        assert result.approx.rewritten_sql in text
        assert "rewritten SQL:" not in session.sql(SQL_FILTERED).to_text()
        assert result.skip_report is None


class TestLifecycle:
    def test_close_is_idempotent(self, tiny_tpch):
        session = AQPSession(tiny_tpch)
        session.close()
        session.close()  # second close must be a no-op, not a crash
        assert session.closed

    def test_context_manager_plus_explicit_close(self, tiny_tpch):
        # The common double-close pattern: with-block exit and a finally.
        with AQPSession(tiny_tpch) as session:
            session.sql(SQL_COUNT, mode="exact")
        session.close()
        assert session.closed

    def test_post_close_sql_raises_cleanly(self, tiny_tpch):
        from repro.errors import InternalError

        session = AQPSession(tiny_tpch)
        session.close()
        with pytest.raises(InternalError, match="session closed"):
            session.sql(SQL_COUNT, mode="exact")

    def test_post_close_append_and_install_raise_cleanly(self, tiny_tpch):
        from repro.engine.table import Table
        from repro.errors import InternalError

        session = AQPSession(tiny_tpch)
        session.close()
        with pytest.raises(InternalError, match="session closed"):
            session.append_rows(
                "lineitem", Table.from_dict("lineitem", {"x": [1]})
            )
        with pytest.raises(InternalError, match="session closed"):
            session.install(
                SmallGroupSampling(SmallGroupConfig(base_rate=0.05))
            )
        with pytest.raises(InternalError, match="session closed"):
            session.explain(SQL_COUNT)
        with pytest.raises(InternalError, match="session closed"):
            with session:
                pass

    def test_close_races_are_single_release(self, tiny_tpch):
        import threading

        session = AQPSession(tiny_tpch)
        barrier = threading.Barrier(4)

        def close():
            barrier.wait()
            session.close()

        threads = [threading.Thread(target=close) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert session.closed


class TestRejectedAppend:
    def test_fact_shaped_batch_changes_nothing(self):
        # The technique maintains its samples from view-shaped batches
        # (fact + dimension attributes); a fact-shaped one is refused, and
        # must be refused before the database stores it.
        from repro.datagen.tpch import generate_tpch
        from repro.errors import SamplingError

        db = generate_tpch(scale=1.0, z=1.5, rows_per_scale=400, seed=5)
        technique = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.1, use_reservoir=False, seed=3)
        )
        with AQPSession(db) as session:
            session.install(technique)
            fact = db.fact_table
            rows_before = fact.n_rows
            samples_before = technique.samples
            exact_before = session.sql(SQL_COUNT, mode="exact").exact.rows
            with pytest.raises(SamplingError, match="missing view columns"):
                session.append_rows(fact.name, fact.head(8))
            assert session.db.fact_table is fact
            assert session.db.fact_table.n_rows == rows_before
            assert technique.samples is samples_before
            assert session.sql(SQL_COUNT, mode="exact").exact.rows == exact_before


SQL_SUM = (
    "SELECT l_shipmode, SUM(l_extendedprice) AS s FROM lineitem "
    "GROUP BY l_shipmode"
)

BASELINES = {
    "uniform": lambda db: UniformSampling(
        UniformConfig(rates=(0.05, 0.1), seed=3)
    ),
    "basic_congress": lambda db: BasicCongress(
        CongressConfig(rates=(0.05, 0.1), seed=3)
    ),
    "outlier_index": lambda db: OutlierIndexing(
        OutlierConfig(
            rates=(0.05, 0.1), measures=("l_extendedprice",), seed=3
        )
    ),
    "icicles": lambda db: IciclesSampling(
        generate_workload(db, WorkloadConfig(queries_per_combo=2, seed=3)),
        IciclesConfig(rates=(0.05, 0.1), seed=3),
    ),
}


@pytest.mark.parametrize("name", sorted(BASELINES))
class TestEveryTechniquePlansThroughTheSession:
    """Baselines get the same spans and deadlines as small group."""

    @pytest.fixture()
    def technique(self, tiny_tpch, name):
        technique = BASELINES[name](tiny_tpch)
        technique.preprocess(tiny_tpch)
        return technique

    def test_session_answer_equals_technique_answer(
        self, tiny_tpch, technique
    ):
        session = AQPSession(tiny_tpch, technique)
        via_session = session.sql(SQL_SUM).approx
        direct = technique.answer(parse_query(SQL_SUM))
        assert via_session.technique == technique.name
        assert answer_fingerprint(encode_approx(via_session)) == (
            answer_fingerprint(encode_approx(direct))
        )

    def test_repeat_answers_alike_with_spans(self, tiny_tpch, technique):
        session = AQPSession(tiny_tpch, technique)
        first = session.sql(SQL_SUM)
        again = session.sql(SQL_SUM, profile=True)
        trace = again.profile.trace
        assert trace.find("plan") is not None
        pieces = trace.find("pieces")
        assert pieces is not None
        assert any(s.name.startswith("piece:") for s in pieces.iter_spans())
        assert answer_fingerprint(encode_approx(again.approx)) == (
            answer_fingerprint(encode_approx(first.approx))
        )

    def test_deadline_expiring_while_planning_runs_no_piece(
        self, tiny_tpch, technique, monkeypatch
    ):
        deadline = Deadline(0.05)
        plan = technique.plan

        def slow_plan(samples, query, rate=None):
            while not deadline.expired():
                time.sleep(0.001)
            return plan(samples, query, rate)

        aggregated = []

        def counting(*args, **kwargs):
            aggregated.append(args[0])
            return aggregate_table(*args, **kwargs)

        aggregate_table = combiner.aggregate_table
        monkeypatch.setattr(technique, "plan", slow_plan)
        monkeypatch.setattr(combiner, "aggregate_table", counting)
        session = AQPSession(tiny_tpch, technique)
        with pytest.raises(DeadlineExceeded, match="piece"):
            session.sql(SQL_SUM, deadline=deadline)
        assert aggregated == []
