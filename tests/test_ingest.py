"""Incremental appends: a tail write plus invalidation.

Contracts under test:

* ``Database.append_rows`` is concat, ``invalidate_table(old)``, swap:
  it rebuilds no derived state itself (``ingest.rows_recomputed`` does
  not move across the call), and the next read answers exactly like a
  database built from the final rows;
* any interleaving of appends and queries yields answers byte-identical
  to a fresh session replaying the same appends, at two chunk layouts.
"""

import numpy as np
import pytest

from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.datagen.synthetic import (
    CategoricalSpec,
    MeasureSpec,
    generate_flat_table,
)
from repro.engine.cache import get_cache
from repro.engine.column import Column
from repro.engine.database import Database
from repro.engine.executor import execute
from repro.engine.parallel import ExecutionOptions
from repro.engine.reservoir import reservoir_replacements
from repro.engine.table import Table
from repro.engine.zonemap import PieceSkipStats
from repro.middleware.session import AQPSession
from repro.obs.registry import get_registry
from repro.sql.parser import parse_query


@pytest.fixture(autouse=True)
def _fresh_state():
    get_cache().clear()
    yield
    get_cache().clear()


def counter(name: str) -> float:
    return get_registry().counter(name)


# ----------------------------------------------------------------------
# append_rows: tail write + invalidation, summaries rebuilt on first read
# ----------------------------------------------------------------------
def clustered_table(x: np.ndarray, grp: list[str]) -> Table:
    return Table("t", {"x": Column.ints(x), "grp": Column.strings(grp)})


OLD_X = np.arange(400)
OLD_GRP = ["abcdefgh"[(i // 50) % 8] for i in range(400)]
#: 37 rows: not a multiple of the 50-row chunk, so every chunk boundary
#: of the grown table moves.
BATCH_X = np.full(37, 200)
BATCH_GRP = ["z"] * 37

NARROW_SQL = "SELECT COUNT(*) AS cnt FROM t WHERE x BETWEEN 120 AND 280"


class TestAppendRows:
    def test_unaligned_append_rebuilds_nothing_and_answers_fresh(self):
        db = Database([clustered_table(OLD_X, OLD_GRP)])
        options = ExecutionOptions(chunk_rows=50)
        query = parse_query(NARROW_SQL)
        # The first evaluation builds the zone map of ``x`` and records
        # a sketch; a dominated query (which the mask cache cannot
        # answer) is then served by that sketch.
        execute(db, query, options=options)
        warm = PieceSkipStats("t")
        execute(
            db,
            parse_query(
                "SELECT COUNT(*) AS cnt FROM t WHERE x BETWEEN 130 AND 270"
            ),
            options=options,
            skip_stats=warm,
        )
        assert warm.sketch_hit

        before = counter("ingest.rows_recomputed")
        db.append_rows("t", clustered_table(BATCH_X, BATCH_GRP))
        assert counter("ingest.rows_recomputed") == before

        after = PieceSkipStats("t")
        answer = execute(db, query, options=options, skip_stats=after)
        assert not after.sketch_hit
        # The first read after the append builds the new column's zone map.
        assert counter("ingest.rows_recomputed") > before

        fresh = Database(
            [
                clustered_table(
                    np.concatenate([OLD_X, BATCH_X]), OLD_GRP + BATCH_GRP
                )
            ]
        )
        baseline = execute(fresh, query, options=options)
        assert answer.rows == baseline.rows
        assert answer.raw_counts == baseline.raw_counts
        assert answer.rows[()][0] == float(161 + 37)

    def test_degenerate_appends(self):
        nothing = clustered_table(np.arange(0), [])
        db = Database([clustered_table(OLD_X, OLD_GRP)])
        assert db.append_rows("t", nothing).n_rows == 400
        empty = Database([nothing])
        batch = clustered_table(BATCH_X, BATCH_GRP)
        assert empty.append_rows("t", batch).n_rows == 37


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

