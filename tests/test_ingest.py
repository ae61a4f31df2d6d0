"""Incremental append maintenance (the delta path of ``append_rows``).

Contracts under test:

* ``Database.append_rows`` emits one structured
  :class:`~repro.engine.cache.AppendEvent` *before* invalidating the old
  table — and only when the incremental path is on and there is a
  non-degenerate append to describe;
* zone maps and bitmask word summaries are *extended*: the stable chunk
  prefix is reused, only the changed tail is recomputed, and the
  extended summary is byte-equal to a from-scratch rebuild (aligned and
  misaligned appends, numeric and dictionary columns);
* provenance sketches are retained across appends with the tail marked
  appended-UNKNOWN, and EXPLAIN counts those chunks distinctly;
* any interleaving of appends and queries yields answers byte-identical
  to a fresh session replaying the same appends — at two chunk layouts,
  and with the incremental path switched off.
"""

import numpy as np
import pytest

from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.datagen.synthetic import (
    CategoricalSpec,
    MeasureSpec,
    generate_flat_table,
)
from repro.engine import cache as cache_mod
from repro.engine import selection as sel
from repro.engine.bitmask import BitmaskVector
from repro.engine.cache import get_cache
from repro.engine.column import Column
from repro.engine.database import Database
from repro.engine.executor import execute
from repro.engine.parallel import ExecutionOptions
from repro.engine.reservoir import reservoir_replacements
from repro.engine.table import Table
from repro.engine.zonemap import (
    PieceSkipStats,
    SkipReport,
    bitmask_chunk_ors,
    column_zone_map,
)
from repro.middleware.session import AQPSession
from repro.obs.profile import skip_report_dict
from repro.obs.registry import get_registry
from repro.sql.parser import parse_query


@pytest.fixture(autouse=True)
def _fresh_state():
    get_cache().clear()
    sel.reset_sketch_store()
    yield
    get_cache().clear()
    sel.reset_sketch_store()


def counter(name: str) -> float:
    return get_registry().counter(name)


def int_table(name: str, values: np.ndarray) -> Table:
    return Table(name, {"x": Column.ints(np.asarray(values))})


# ----------------------------------------------------------------------
# The event channel
# ----------------------------------------------------------------------
class _Capture:
    """Temporarily subscribed append listener (removed on exit)."""

    def __init__(self):
        self.events = []

    def __enter__(self):
        cache_mod.add_append_listener(self.events.append)
        return self

    def __exit__(self, *exc_info):
        cache_mod._APPEND_LISTENERS.remove(self.events.append)


class TestAppendEvent:
    def test_append_emits_one_structured_event(self):
        db = Database([int_table("t", np.arange(100))])
        before = counter("ingest.events")
        with _Capture() as cap:
            merged = db.append_rows("t", int_table("t", np.arange(20)))
        assert counter("ingest.events") == before + 1
        (event,) = cap.events
        assert event.table_name == "t"
        assert event.old_rows == 100 and event.new_rows == 120
        assert event.new_table is merged is db.table("t")
        (name, old_col, new_col) = event.columns[0]
        assert name == "x"
        assert len(old_col) == 100 and len(new_col) == 120

    def test_flag_off_suppresses_the_event(self):
        db = Database([int_table("t", np.arange(100))])
        with _Capture() as cap:
            db.append_rows(
                "t",
                int_table("t", np.arange(20)),
                options=ExecutionOptions(incremental_appends=False),
            )
        assert cap.events == []

    def test_degenerate_appends_fall_back_to_invalidation(self):
        db = Database([int_table("t", np.arange(100))])
        empty = Database([int_table("e", np.arange(0))])
        with _Capture() as cap:
            db.append_rows("t", int_table("t", np.arange(0)))
            empty.append_rows("e", int_table("e", np.arange(10)))
        assert cap.events == []
        assert empty.table("e").n_rows == 10


# ----------------------------------------------------------------------
# Zone-map extension: extended == rebuilt, cheaper
# ----------------------------------------------------------------------
class TestZoneMapExtension:
    def _zone_maps_equal_fresh(self, db, batch, options):
        """Append with a warm zone map; compare against a cold rebuild."""
        col = db.table("t").column("x")
        column_zone_map(col, options)  # warm the cache on the old column
        merged = db.append_rows("t", batch, options=options)
        new_col = merged.column("x")
        cached = get_cache().get(
            "zone_map", (new_col,), extra=options.chunk_rows
        )
        assert cached is not cache_mod.MISS, "extension did not re-anchor"
        get_cache().clear()
        fresh = column_zone_map(new_col, options)
        assert cached == fresh
        return cached

    def test_aligned_append_reuses_the_whole_prefix(self):
        db = Database([int_table("t", np.arange(1000))])
        options = ExecutionOptions(chunk_rows=100)
        extended_before = counter("ingest.chunks_extended")
        rows_before = counter("ingest.rows_recomputed")
        zm = self._zone_maps_equal_fresh(
            db, int_table("t", np.arange(200)), options
        )
        assert zm.n_chunks == 12
        # All 10 old chunks reused; only the 2 appended chunks computed.
        assert counter("ingest.chunks_extended") - extended_before == 10
        # rows_recomputed: 1000 warming the old column's map, 200 on the
        # extend path, 1200 for the cold rebuild the comparison forced.
        assert (
            counter("ingest.rows_recomputed") - rows_before
            == 1000 + 200 + 1200
        )

    def test_misaligned_append_still_matches_fresh_build(self):
        db = Database([int_table("t", np.arange(1000))])
        options = ExecutionOptions(chunk_rows=100)
        self._zone_maps_equal_fresh(
            db, int_table("t", np.arange(137)), options
        )

    def test_string_dictionary_growth_matches_fresh_build(self):
        old = Table(
            "t",
            {"x": Column.strings(["abcd"[(i // 50) % 4] for i in range(400)])},
        )
        db = Database([old])
        options = ExecutionOptions(chunk_rows=50)
        # The batch introduces dictionary values the old column never saw;
        # concat must keep old codes as a prefix for prefix reuse to hold.
        batch = Table("t", {"x": Column.strings(["zz"] * 100)})
        self._zone_maps_equal_fresh(db, batch, options)

    def test_bitmask_chunk_ors_extended_equals_fresh(self):
        def masked_table(values, bits):
            vector = BitmaskVector(len(values), 4)
            vector.set_bit(np.flatnonzero(bits), 1)
            return Table(
                "t", {"x": Column.ints(np.asarray(values))}
            ).with_bitmask(vector)

        old = masked_table(np.arange(400), np.arange(400) % 3 == 0)
        db = Database([old])
        options = ExecutionOptions(chunk_rows=50)
        bitmask_chunk_ors(old.bitmask, options)  # warm on the old vector
        merged = db.append_rows(
            "t",
            masked_table(np.arange(100), np.ones(100, dtype=bool)),
            options=options,
        )
        cached = get_cache().get(
            "zone_map_bitmask", (merged.bitmask,), extra=options.chunk_rows
        )
        assert cached is not cache_mod.MISS
        get_cache().clear()
        fresh = bitmask_chunk_ors(merged.bitmask, options)
        np.testing.assert_array_equal(cached, fresh)

    def test_cold_append_extends_nothing(self):
        # No zone map was ever materialised: nothing to extend, and the
        # first query after the append builds from scratch as before.
        db = Database([int_table("t", np.arange(1000))])
        options = ExecutionOptions(chunk_rows=100)
        before = counter("ingest.chunks_extended")
        db.append_rows("t", int_table("t", np.arange(200)), options=options)
        assert counter("ingest.chunks_extended") == before


# ----------------------------------------------------------------------
# Sketch retention + the appended-UNKNOWN accounting
# ----------------------------------------------------------------------
def clustered_db(n: int = 400, chunk: int = 50) -> Database:
    table = Table(
        "t",
        {
            "x": Column.ints(np.arange(n)),
            "grp": Column.strings(
                ["abcdefgh"[(i // chunk) % 8] for i in range(n)]
            ),
        },
    )
    return Database([table])


NARROW_SQL = "SELECT COUNT(*) AS cnt FROM t WHERE x BETWEEN 120 AND 280"


class TestSketchRetention:
    def _sketch_stats_after_append(self):
        db = clustered_db()
        options = ExecutionOptions(chunk_rows=50)
        execute(db, parse_query(NARROW_SQL), options=options)
        retained_before = counter("ingest.sketches_retained")
        batch = Table(
            "t",
            {
                "x": Column.ints(np.full(100, 200)),
                "grp": Column.strings(["z"] * 100),
            },
        )
        db.append_rows("t", batch, options=options)
        assert counter("ingest.sketches_retained") == retained_before + 1
        stats = PieceSkipStats("t")
        result = execute(
            db, parse_query(NARROW_SQL), options=options, skip_stats=stats
        )
        return db, options, result, stats

    def test_sketch_survives_append_marking_the_tail_unknown(self):
        _db, _options, result, stats = self._sketch_stats_after_append()
        assert stats.sketch_hit
        assert stats.appended_unknown == 2  # two brand-new tail chunks
        assert result.rows[()][0] == float(161 + 100)

    def test_explain_counts_appended_unknown_distinctly(self):
        _db, _options, _result, stats = self._sketch_stats_after_append()
        report = SkipReport(enabled=True, pieces=[stats])
        assert report.appended_unknown == 2
        assert "(2 appended-unknown)" in report.to_text()
        assert skip_report_dict(report)["pieces"][0]["appended_unknown"] == 2

    def test_next_full_evaluation_clears_the_unknown_marks(self):
        db, options, _result, stats = self._sketch_stats_after_append()
        assert stats.appended_unknown == 2
        # That evaluation re-recorded the sketch with exact chunk
        # knowledge.  Force the next query back through the sketch fast
        # path (the predicate-mask cache would otherwise answer it):
        # nothing is appended-UNKNOWN any more.
        get_cache().clear()
        again = PieceSkipStats("t")
        execute(db, parse_query(NARROW_SQL), options=options, skip_stats=again)
        assert again.sketch_hit
        assert again.appended_unknown == 0


# ----------------------------------------------------------------------
# Reservoir delta maintenance
# ----------------------------------------------------------------------
class TestReservoirReplacements:
    def test_deterministic_for_a_fixed_stream(self):
        a = reservoir_replacements(50, 1000, 300, rng=7)
        b = reservoir_replacements(50, 1000, 300, rng=7)
        assert a == b
        assert all(0 <= slot < 50 for slot in a)
        assert all(0 <= offset < 300 for offset in a.values())

    def test_zero_capacity_accepts_nothing(self):
        assert reservoir_replacements(0, 100, 50, rng=3) == {}

    def test_acceptance_rate_tracks_k_over_n(self):
        replacements = reservoir_replacements(100, 10000, 5000, rng=11)
        # E[acceptances] = sum k/n over the batch ≈ k*ln(15000/10000) ≈ 40.5
        assert 20 <= len(set(replacements.values())) <= 70


# ----------------------------------------------------------------------
# Interleaved appends + queries: the determinism gate
# ----------------------------------------------------------------------
SPEC = dict(
    categoricals=[
        CategoricalSpec("color", 20, 1.5),
        CategoricalSpec("status", 4, 0.8),
    ],
    measures=[MeasureSpec("amount", distribution="lognormal")],
)

SWEEP_SQL = (
    "SELECT status, COUNT(*) AS cnt, SUM(amount) AS total FROM flat "
    "WHERE amount BETWEEN 0.5 AND 80.0 GROUP BY status"
)


def make_db(n_rows, seed=71):
    return Database([generate_flat_table("flat", n_rows, seed=seed, **SPEC)])


def make_batch(n_rows, seed):
    return generate_flat_table("flat", n_rows, seed=seed, **SPEC)


def _new_session(options):
    get_cache().clear()
    sel.reset_sketch_store()
    session = AQPSession(make_db(3000), options=options)
    session.install(
        SmallGroupSampling(
            SmallGroupConfig(base_rate=0.1, use_reservoir=False, seed=7)
        )
    )
    return session


def _fingerprint(result):
    return (
        repr(sorted(result.approx.groups.items())),
        result.approx.rows_scanned,
    )


BATCH_SEEDS = (81, 82, 83)


def _interleaved(options):
    """Query, append, query, ... — the racing workload."""
    session = _new_session(options)
    try:
        for seed in BATCH_SEEDS:
            session.sql(SWEEP_SQL)
            session.append_rows("flat", make_batch(400, seed))
        return _fingerprint(session.sql(SWEEP_SQL))
    finally:
        session.close()


def _replayed(options):
    """All appends first, then the one query — the fresh-build control."""
    session = _new_session(options)
    try:
        for seed in BATCH_SEEDS:
            session.append_rows("flat", make_batch(400, seed))
        return _fingerprint(session.sql(SWEEP_SQL))
    finally:
        session.close()


class TestInterleavedDeterminism:
    @pytest.mark.parametrize("chunk_rows", [256, 1024])
    def test_interleaving_equals_fresh_replay(self, chunk_rows):
        baseline = _replayed(ExecutionOptions(chunk_rows=chunk_rows))
        options = ExecutionOptions(chunk_rows=chunk_rows)
        assert _interleaved(options) == baseline, (
            f"answer drifted at chunk_rows={chunk_rows}"
        )
        # Full invalidation is answer-neutral: it yields
        # byte-identical estimates.
        off = ExecutionOptions(
            chunk_rows=chunk_rows, incremental_appends=False
        )
        assert _interleaved(off) == baseline

    def test_session_append_routes_to_the_technique(self):
        session = _new_session(ExecutionOptions(chunk_rows=512))
        try:
            technique = session.technique
            before = technique.maintenance_report()["view_rows"]
            session.append_rows("flat", make_batch(400, 91))
            assert session.db.table("flat").n_rows == 3400
            assert technique.maintenance_report()["view_rows"] == before + 400
        finally:
            session.close()

