"""Observability subsystem: spans, registry, profiles, and the
answer-neutrality guarantee.

Covers the three layers of :mod:`repro.obs` in isolation (trace,
registry, jsonsafe), the assembled :class:`QueryProfile` end to end
through ``session.sql(..., profile=True)``, the profile-determinism
sweep (byte-identical answers with profiling on/off — the dynamic
counterpart of lint rule RL009),
and the NaN-leak regressions in ``SessionResult``/``CacheMetrics``
reports.
"""

from __future__ import annotations

import json
import math
import threading

import pytest

from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.engine.cache import CacheMetrics, get_cache
from repro.middleware.session import AQPSession, SessionResult
from repro.obs import (
    NULL_SPAN,
    Histogram,
    MetricsRegistry,
    QueryProfile,
    Span,
    cache_delta,
    dumps,
    get_registry,
    json_safe,
)
from repro.sql.parser import parse_query


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token!r}")


def strict_loads(text: str):
    """json.loads that refuses NaN/Infinity tokens outright."""
    return json.loads(text, parse_constant=_reject_constant)


SQL = (
    "SELECT l_shipmode, COUNT(*) AS cnt, AVG(l_extendedprice) AS avg_price "
    "FROM lineitem GROUP BY l_shipmode"
)


def make_session(db) -> AQPSession:
    technique = SmallGroupSampling(
        SmallGroupConfig(base_rate=0.05, use_reservoir=False)
    )
    session = AQPSession(db)
    session.install(technique)
    return session


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpan:
    def test_context_manager_times_block(self):
        span = Span("root")
        with span:
            pass
        assert span.seconds >= 0.0

    def test_child_attrs_and_traversal(self):
        root = Span("root")
        a = root.child("a")
        b = a.child("b")
        a.add("rows", 5)
        a.add("rows", 7)
        b.annotate(kind="combine", pruned=False)
        assert [s.name for s in root.iter_spans()] == ["root", "a", "b"]
        assert root.find("b") is b
        assert root.find("missing") is None
        assert a.attrs == {"rows": 12}
        assert b.attrs == {"kind": "combine", "pruned": False}

    def test_to_dict_and_text(self):
        root = Span("root")
        child = root.child("work")
        child.annotate(rows=3)
        payload = root.to_dict()
        assert payload["name"] == "root"
        assert payload["children"][0]["attrs"] == {"rows": 3}
        text = root.to_text()
        assert "root" in text and "work" in text and "rows=3" in text

    def test_null_span_discards_everything(self):
        before = (NULL_SPAN.seconds, dict(NULL_SPAN.attrs),
                  list(NULL_SPAN.children))
        with NULL_SPAN:
            child = NULL_SPAN.child("anything")
            child.add("n", 42)
            child.annotate(flag=True)
        assert child is NULL_SPAN
        assert (NULL_SPAN.seconds, NULL_SPAN.attrs, NULL_SPAN.children) == (
            before[0], before[1], before[2]
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.incr("pieces")
        reg.incr("pieces", 4)
        reg.set_gauge("pool.size", 2)
        reg.set_gauge("pool.size", 8)
        reg.observe("wait", 0.005)
        reg.observe("wait", 0.5)
        assert reg.counter("pieces") == 5
        assert reg.counter("never") == 0
        snap = reg.snapshot()
        assert snap["counters"] == {"pieces": 5}
        assert snap["gauges"] == {"pool.size": 8}
        hist = snap["histograms"]["wait"]
        assert hist["count"] == 2
        assert hist["min"] == 0.005 and hist["max"] == 0.5
        assert hist["buckets"]["le_0.01"] == 1

    def test_non_finite_observations_do_not_poison_sums(self):
        reg = MetricsRegistry()
        reg.observe("t", 1.0)
        reg.observe("t", float("nan"))
        reg.observe("t", float("inf"))
        snap = reg.snapshot()["histograms"]["t"]
        assert snap["count"] == 1
        assert snap["sum"] == 1.0
        assert snap["non_finite"] == 2

    def test_empty_histogram_mean_is_null_not_nan(self):
        assert Histogram().snapshot()["mean"] is None

    def test_snapshot_is_strict_json(self):
        reg = MetricsRegistry()
        reg.observe("t", float("nan"))
        reg.set_gauge("g", float("inf"))
        strict_loads(dumps(reg.snapshot()))

    def test_reset(self):
        reg = MetricsRegistry()
        reg.incr("a")
        reg.observe("b", 1.0)
        reg.set_gauge("c", 2.0)
        reg.reset()
        snap = reg.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_thread_hammer_loses_no_updates(self):
        reg = MetricsRegistry()

        def work():
            for _ in range(2000):
                reg.incr("n")
                reg.observe("t", 0.001)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("n") == 16000
        assert reg.snapshot()["histograms"]["t"]["count"] == 16000

    def test_global_registry_is_shared(self):
        assert get_registry() is get_registry()


class TestStrictJsonAtTheSource:
    """The registry discharges ``allow_nan=False`` itself, not via the
    serialiser: non-finite writes are diverted at the write site, and
    malformed histogram bounds are rejected at construction."""

    def test_non_finite_counter_incr_is_diverted(self):
        reg = MetricsRegistry()
        reg.incr("n", 3)
        reg.incr("n", float("nan"))
        reg.incr("n", float("inf"))
        assert reg.counter("n") == 3  # never poisoned
        assert reg.counter("obs.non_finite_writes") == 2

    def test_non_finite_gauge_is_dropped_not_stored(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 1.5)
        reg.set_gauge("g", float("-inf"))
        snap = reg.snapshot()
        assert snap["gauges"]["g"] == 1.5  # last *finite* write wins
        assert snap["counters"]["obs.non_finite_writes"] == 1

    def test_histogram_rejects_non_finite_bounds(self):
        from repro.errors import InternalError

        with pytest.raises(InternalError, match="finite"):
            Histogram(bounds=(0.1, float("inf")))
        with pytest.raises(InternalError, match="finite"):
            Histogram(bounds=(float("nan"), 1.0))

    def test_histogram_rejects_non_increasing_bounds(self):
        from repro.errors import InternalError

        with pytest.raises(InternalError, match="increase"):
            Histogram(bounds=(1.0, 1.0))
        with pytest.raises(InternalError, match="increase"):
            Histogram(bounds=(2.0, 1.0))

    def test_snapshot_needs_no_scrubbing(self):
        """After hostile writes, the snapshot round-trips through the
        strict serialiser without json_safe changing anything — proof
        the fix lives at the source, not in the scrubber."""
        reg = MetricsRegistry()
        reg.incr("a", float("nan"))
        reg.set_gauge("b", float("inf"))
        reg.observe("c", float("-inf"))
        reg.observe("c", 0.25)
        snap = reg.snapshot()
        assert json_safe(snap) == snap
        json.loads(
            json.dumps(snap, allow_nan=False),
            parse_constant=_reject_constant,
        )


# ----------------------------------------------------------------------
# Strict-JSON sanitising
# ----------------------------------------------------------------------
class TestJsonSafe:
    def test_non_finite_floats_become_null(self):
        value = {
            "nan": float("nan"),
            "inf": float("inf"),
            "ninf": float("-inf"),
            "ok": 1.5,
        }
        safe = json_safe(value)
        assert safe["nan"] is None
        assert safe["inf"] is None
        assert safe["ninf"] is None
        assert safe["ok"] == 1.5

    def test_numpy_scalars_and_arrays(self):
        np = pytest.importorskip("numpy")
        safe = json_safe(
            {"s": np.float64("nan"), "i": np.int64(3), "a": np.array([1.0, 2.0])}
        )
        assert safe["s"] is None
        assert safe["i"] == 3
        assert safe["a"] == [1.0, 2.0]

    def test_nested_containers_and_keys(self):
        safe = json_safe({(1, 2): {float("nan")}, "t": (float("inf"), 0)})
        assert safe == {"(1, 2)": [None], "t": [None, 0]}

    @pytest.mark.parametrize(
        "items",
        [
            ["a", 1, True, None, 2.5] * 4,
            [1.0] * 20 + [float("nan"), 3],
            [2**80, 1.5, "b"] * 6,
            (0.5,) * 20 + (float("-inf"),),
            {f"x{i}" for i in range(20)},
            [[1.0, float("inf")], "z"] * 10,
        ],
    )
    def test_scalar_containers_match_the_item_walk(self, items):
        # Long containers of plain scalars are copied whole; the result
        # must be what sanitising each item gives.
        safe = json_safe(items)
        assert type(safe) is list and safe is not items
        assert safe == [json_safe(item) for item in items]

    def test_float_subclasses_in_a_list_are_unwrapped_as_before(self):
        np = pytest.importorskip("numpy")
        safe = json_safe([np.float64("nan")] + [np.float64(1.5), 2.0] * 10)
        assert safe == [None] + [1.5, 2.0] * 10

    def test_dumps_rejects_unsanitised_nan_by_default(self):
        strict_loads(dumps({"x": float("nan")}))  # sanitised to null
        with pytest.raises(ValueError):
            json.dumps({"x": float("nan")}, allow_nan=False)


# ----------------------------------------------------------------------
# Profiles end to end
# ----------------------------------------------------------------------
class TestQueryProfile:
    def test_profile_off_by_default(self, tiny_tpch):
        session = make_session(tiny_tpch)
        result = session.sql(SQL)
        assert result.profile is None
        assert result.approx.trace is None

    def test_profile_attached_with_full_lifecycle(self, tiny_tpch):
        session = make_session(tiny_tpch)
        result = session.sql(SQL, mode="both", profile=True)
        profile = result.profile
        assert profile is not None
        assert profile.mode == "both"
        assert profile.technique == "small_group"
        assert profile.rows_scanned == result.approx.rows_scanned
        phases = profile.phase_seconds()
        assert set(phases) == {"parse", "execute.approx", "execute.exact"}
        trace = profile.trace
        assert trace.find("plan") is not None
        assert trace.find("combine") is not None
        piece_spans = [
            s for s in trace.iter_spans() if s.name.startswith("piece:")
        ]
        assert piece_spans, "per-piece spans missing"
        assert result.approx.trace is trace.find("pieces")

    def test_profile_dict_is_strict_json(self, tiny_tpch):
        session = make_session(tiny_tpch)
        result = session.sql(SQL, mode="both", profile=True)
        payload = strict_loads(dumps(result.profile.to_dict()))
        assert payload["sql"] == SQL
        assert payload["trace"]["name"] == "query"
        assert isinstance(payload["cache"], dict)

    def test_profile_text_renders(self, tiny_tpch):
        session = make_session(tiny_tpch)
        result = session.sql(SQL, mode="both", profile=True)
        text = result.profile.to_text()
        assert "query profile" in text
        assert "phases:" in text
        assert "speedup:" in text
        # profile rides along in the session rendering too
        assert "query profile" in result.to_text()

    def test_exact_only_profile_has_no_nan_speedup(self, tiny_tpch):
        session = make_session(tiny_tpch)
        result = session.sql(SQL, mode="exact", profile=True)
        profile = result.profile
        assert profile.speedup is None
        assert profile.approx_seconds is None
        assert "speedup: n/a" in profile.to_text()
        strict_loads(dumps(profile.to_dict()))

    def test_plan_memo_hit_recorded_on_second_run(self, tiny_tpch):
        session = make_session(tiny_tpch)
        session.sql(SQL, mode="approx")
        result = session.sql(SQL, mode="approx", profile=True)
        plan = result.profile.trace.find("plan")
        assert plan is not None
        assert plan.attrs.get("memo_hit") is True

    def test_cache_delta_between_snapshots(self):
        metrics = CacheMetrics()
        before = metrics.snapshot()
        metrics.record_hit("plan")
        metrics.record_hit("plan")
        metrics.record_miss("group_ids")
        delta = cache_delta(before, metrics.snapshot())
        assert delta == {
            "plan": {"hits": 2, "misses": 0},
            "group_ids": {"hits": 0, "misses": 1},
        }

    def test_registry_counts_session_queries(self, tiny_tpch):
        session = make_session(tiny_tpch)
        registry = get_registry()
        before = registry.counter("session.queries")
        session.sql(SQL, mode="approx")
        session.sql(SQL, mode="approx", profile=True)
        assert registry.counter("session.queries") == before + 2


# ----------------------------------------------------------------------
# Answer neutrality: the determinism sweep
# ----------------------------------------------------------------------
class TestProfileDeterminism:
    def test_profiling_never_changes_answers(self, tiny_tpch):
        """Byte-identical estimates with profiling off and on.

        One technique is preprocessed once and shared; each run gets a
        fresh session (fresh memos) so only profiling varies.  This is
        the dynamic enforcement of RL009's static contract.
        """
        technique = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.05, use_reservoir=False)
        )
        technique.preprocess(tiny_tpch)
        baseline = None
        for profile in (False, True):
            session = AQPSession(tiny_tpch, technique=technique)
            result = session.sql(SQL, mode="both", profile=profile)
            fingerprint = (
                repr(sorted(result.approx.groups.items())),
                result.approx.rows_scanned,
                repr(sorted(result.exact.rows.items())),
            )
            if baseline is None:
                baseline = fingerprint
            else:
                assert fingerprint == baseline, (
                    f"answer drifted at profile={profile}"
                )


# ----------------------------------------------------------------------
# NaN-leak regressions (the bug sweep)
# ----------------------------------------------------------------------
class TestReportNaNRegressions:
    def _result_exact_only(self, flat_db):
        from repro.engine.executor import execute

        query = parse_query(
            "SELECT status, COUNT(*) AS cnt FROM flat GROUP BY status"
        )
        return SessionResult(
            sql="...",
            query=query,
            exact=execute(flat_db, query),
            exact_seconds=0.01,
        )

    def test_to_text_renders_requested_ci_level(self, tiny_tpch):
        session = make_session(tiny_tpch)
        result = session.sql(SQL, mode="approx")
        assert "95% CI" in result.to_text()
        assert "90% CI" in result.to_text(level=0.90)
        assert "99% CI" in result.to_text(level=0.99)
        assert "95% CI" not in result.to_text(level=0.90)

    def test_ci_level_changes_interval_width(self, tiny_tpch):
        session = make_session(tiny_tpch)
        result = session.sql(SQL, mode="approx")
        assert result.to_text(level=0.90) != result.to_text(level=0.99)

    def test_speedup_nan_kept_but_never_rendered(self, flat_db):
        result = self._result_exact_only(flat_db)
        assert math.isnan(result.speedup)  # legacy contract
        assert result.speedup_or_none is None
        assert "nan" not in result.to_text().lower()

    def test_speedup_text_says_na_when_both_sides_present_but_zero(self):
        query = parse_query("SELECT COUNT(*) AS n FROM t")
        from repro.core.answer import ApproxAnswer

        result = SessionResult(
            sql="...",
            query=query,
            approx=ApproxAnswer(
                group_columns=(), aggregate_names=("n",), groups={}
            ),
            exact=None,
            approx_seconds=0.0,
            exact_seconds=0.0,
        )
        assert result.speedup_or_none is None

    def test_speedup_serialises_as_null(self, flat_db):
        result = self._result_exact_only(flat_db)
        text = dumps({"speedup": result.speedup_or_none})
        assert strict_loads(text) == {"speedup": None}

    def test_hit_rate_none_for_unseen_kind(self):
        metrics = CacheMetrics()
        assert metrics.hit_rate("never_looked_up") is None
        metrics.record_hit("plan")
        assert metrics.hit_rate("plan") == 1.0
        metrics.record_miss("plan")
        assert metrics.hit_rate("plan") == 0.5

    def test_cache_snapshot_is_strict_json_even_when_empty(self):
        metrics = CacheMetrics()
        strict_loads(json.dumps(metrics.snapshot(), allow_nan=False))
        metrics.record_miss("group_ids")
        snap = metrics.snapshot()
        strict_loads(json.dumps(snap, allow_nan=False))
        assert snap["by_kind"]["group_ids"]["hit_rate"] == 0.0

    def test_global_cache_snapshot_strict_json(self, tiny_tpch):
        session = make_session(tiny_tpch)
        session.sql(SQL, mode="both")
        strict_loads(
            json.dumps(get_cache().metrics.snapshot(), allow_nan=False)
        )
