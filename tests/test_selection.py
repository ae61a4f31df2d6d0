"""Provenance-sketch caching.

The contracts under test (see :mod:`repro.engine.selection`):

* templates/dominance — a sketch may only serve a query whose matching
  rows are provably covered by the recorded one;
* the executor's sketch fast path is *exact-equivalent*: answers are
  byte-identical to the non-sketch path;
* invalidation — sketches are execution-cache entries, so
  ``append_rows`` / ``insert_rows`` / ``drop_table`` drop them through
  ``invalidate_table`` and never leave a stale one serving wrong chunk
  sets.
"""

import gc

import numpy as np
import pytest

from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.datagen.synthetic import (
    CategoricalSpec,
    MeasureSpec,
    generate_flat_table,
)
from repro.engine import selection as sel
from repro.engine.bitmask import Bitmask
from repro.engine.cache import ExecutionCache, get_cache
from repro.engine.column import Column
from repro.engine.database import Database
from repro.engine.executor import execute
from repro.engine.expressions import (
    And,
    Between,
    BitmaskDisjoint,
    Compare,
    CompareOp,
    Equals,
    InSet,
    Not,
    Or,
)
from repro.engine.parallel import ExecutionOptions
from repro.engine.table import Table
from repro.engine.zonemap import PieceSkipStats
from repro.sql.parser import parse_query


@pytest.fixture(autouse=True)
def _fresh_state():
    get_cache().clear()
    yield
    get_cache().clear()


def clustered_db(n: int = 400, chunk: int = 50) -> Database:
    """Sorted ``x`` so chunks are disjoint ranges (sketches are crisp)."""
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


WIDE_SQL = "SELECT COUNT(*) AS cnt FROM t WHERE x BETWEEN 100 AND 299"
NARROW_SQL = "SELECT COUNT(*) AS cnt FROM t WHERE x BETWEEN 120 AND 280"


# ----------------------------------------------------------------------
# Templates and dominance
# ----------------------------------------------------------------------
class TestPredicateTemplate:
    def test_constants_extracted_share_template(self):
        key1, params1 = sel.predicate_template(Between("x", 10, 20))
        key2, params2 = sel.predicate_template(Between("x", 30, 40))
        assert key1 == key2 == ("between", "x")
        assert params1 == (10, 20) and params2 == (30, 40)

    def test_compare_op_is_part_of_the_shape(self):
        lt, _ = sel.predicate_template(Compare("x", CompareOp.LT, 5))
        ge, _ = sel.predicate_template(Compare("x", CompareOp.GE, 5))
        assert lt != ge

    def test_boolean_children_sorted_by_key(self):
        a = Between("x", 1, 2)
        b = Equals("grp", "a")
        assert sel.predicate_template(And([a, b])) == sel.predicate_template(
            And([b, a])
        )
        assert sel.predicate_template(Or([a, b])) == sel.predicate_template(
            Or([b, a])
        )
        # AND and OR are different shapes even with identical children.
        assert sel.predicate_template(And([a, b]))[0] != (
            sel.predicate_template(Or([a, b]))[0]
        )

    def test_inset_params_are_order_insensitive(self):
        t1 = sel.predicate_template(InSet("grp", ["a", "b"]))
        t2 = sel.predicate_template(InSet("grp", ["b", "a", "a"]))
        assert t1 == t2

    def test_not_nests_the_child_shape(self):
        key, params = sel.predicate_template(Not(Between("x", 1, 9)))
        assert key == ("not", ("between", "x"))
        assert params == ((1, 9),)

    def test_untemplatable_predicates_return_none(self):
        bitmask = BitmaskDisjoint(Bitmask(4, [1]))
        assert sel.predicate_template(bitmask) is None
        assert sel.predicate_template(And([Equals("x", 1), bitmask])) is None
        assert sel.predicate_template(Not(bitmask)) is None
        # Unhashable membership values cannot key a store slot.
        assert sel.predicate_template(InSet("x", [[1], [2]])) is None


class TestDominance:
    def test_between_wider_dominates_narrower_only(self):
        key = ("between", "x")
        assert sel.dominates(key, (10, 40), (15, 30))
        assert sel.dominates(key, (10, 40), (10, 40))
        assert not sel.dominates(key, (15, 30), (10, 40))
        assert not sel.dominates(key, (10, 40), (5, 30))

    def test_compare_direction(self):
        lt = ("cmp", "x", CompareOp.LT.value)
        assert sel.dominates(lt, (50,), (40,))
        assert not sel.dominates(lt, (40,), (50,))
        ge = ("cmp", "x", CompareOp.GE.value)
        assert sel.dominates(ge, (10,), (20,))
        assert not sel.dominates(ge, (20,), (10,))
        # Equality comparisons only cover themselves.
        eq = ("cmp", "x", CompareOp.EQ.value)
        assert sel.dominates(eq, (7,), (7,))
        assert not sel.dominates(eq, (7,), (8,))

    def test_inset_superset_dominates(self):
        key = ("in", "grp")
        assert sel.dominates(key, (frozenset("abc"),), (frozenset("ab"),))
        assert not sel.dominates(key, (frozenset("ab"),), (frozenset("abc"),))

    def test_not_requires_exact_parameters(self):
        key = ("not", ("between", "x"))
        assert sel.dominates(key, ((10, 40),), ((10, 40),))
        # A wider NOT-BETWEEN matches *fewer* rows: containment flips.
        assert not sel.dominates(key, ((10, 40),), ((15, 30),))

    def test_and_or_dominate_childwise(self):
        key, wide = sel.predicate_template(
            And([Between("x", 0, 100), Equals("grp", "a")])
        )
        _, narrow = sel.predicate_template(
            And([Between("x", 10, 90), Equals("grp", "a")])
        )
        assert sel.dominates(key, wide, narrow)
        assert not sel.dominates(key, narrow, wide)

    def test_incomparable_types_conservatively_fail(self):
        assert not sel.dominates(("between", "x"), (10, 40), ("a", "b"))
        assert not sel.dominates(("unknown",), (1,), (1,))


# ----------------------------------------------------------------------
# Sketch slots (execution-cache entries)
# ----------------------------------------------------------------------
class TestSketchStore:
    KEY = ("between", "x")

    def test_lookup_prefers_smallest_dominating_set(self):
        col = Column.ints(np.arange(10))
        slot = sel.sketch_slot(self.KEY, [col], 4)
        sel.record_sketch(slot, (0, 100), [0, 1, 2, 3])
        sel.record_sketch(slot, (10, 50), [1, 2])
        slot = sel.sketch_slot(self.KEY, [col], 4)
        got = sel.lookup_sketch(slot, self.KEY, (20, 40))
        assert got.tolist() == [1, 2]
        # Non-dominated parameters miss.
        assert sel.lookup_sketch(slot, self.KEY, (0, 200)) is None

    def test_chunk_rows_is_part_of_the_key(self):
        col = Column.ints(np.arange(10))
        sel.record_sketch(sel.sketch_slot(self.KEY, [col], 4), (0, 100), [0, 1])
        other_layout = sel.sketch_slot(self.KEY, [col], 8)
        assert sel.lookup_sketch(other_layout, self.KEY, (0, 100)) is None

    def test_capacity_evicts_least_hit_entry(self):
        col = Column.ints(np.arange(10))
        slot = sel.sketch_slot(self.KEY, [col], 4)
        for i in range(sel.SKETCH_SLOT_CAPACITY + 1):
            low = i * 100
            sel.record_sketch(slot, (low, low + 10), [i % 4])
        assert len(get_cache()) == 1  # one slot, many entries
        assert len(slot) == sel.SKETCH_SLOT_CAPACITY
        # The first (never-hit) entry was evicted; the second survives.
        assert sel.lookup_sketch(slot, self.KEY, (2, 8)) is None
        assert sel.lookup_sketch(slot, self.KEY, (102, 108)) is not None

    def test_invalidate_object_drops_anchored_slots_only(self):
        col_a = Column.ints(np.arange(10))
        col_b = Column.ints(np.arange(10))
        other = ("between", "y")
        sel.record_sketch(sel.sketch_slot(self.KEY, [col_a], 4), (0, 100), [0])
        sel.record_sketch(sel.sketch_slot(other, [col_b], 4), (0, 100), [1])
        assert get_cache().invalidate_object(col_a) == 1
        assert len(get_cache()) == 1
        slot_a = sel.sketch_slot(self.KEY, [col_a], 4)
        assert sel.lookup_sketch(slot_a, self.KEY, (0, 100)) is None
        slot_b = sel.sketch_slot(other, [col_b], 4)
        assert sel.lookup_sketch(slot_b, other, (0, 100)) is not None

    def test_anchor_death_drops_the_slot(self):
        col = Column.ints(np.arange(10))
        sel.record_sketch(sel.sketch_slot(self.KEY, [col], 4), (0, 100), [0, 1])
        assert len(get_cache()) == 1
        del col
        gc.collect()
        assert len(get_cache()) == 0


# ----------------------------------------------------------------------
# Executor fast path: exactness and equivalence
# ----------------------------------------------------------------------
class TestSketchFastPath:
    def _run(self, db, sql, options):
        stats = PieceSkipStats("t")
        result = execute(db, parse_query(sql), options=options, skip_stats=stats)
        return result, stats

    def test_dominating_sketch_serves_exact_answer(self):
        db = clustered_db()
        options = ExecutionOptions(chunk_rows=50)
        self._run(db, WIDE_SQL, options)  # records the realized chunk set
        narrow, stats = self._run(db, NARROW_SQL, options)
        assert stats.sketch_hit
        assert stats.chunks_scanned < stats.n_chunks
        # Byte-identical to a cold evaluation of the same query.
        get_cache().clear()
        cold, cold_stats = self._run(db, NARROW_SQL, options)
        assert not cold_stats.sketch_hit
        assert narrow.rows == cold.rows
        assert narrow.raw_counts == cold.raw_counts

    def test_wider_query_does_not_hit(self):
        db = clustered_db()
        options = ExecutionOptions(chunk_rows=50)
        self._run(db, NARROW_SQL, options)
        wide, stats = self._run(db, WIDE_SQL, options)
        assert not stats.sketch_hit
        assert wide.rows[()][0] == 200.0

    def test_chunk_rows_mismatch_does_not_hit(self):
        db = clustered_db()
        self._run(db, WIDE_SQL, ExecutionOptions(chunk_rows=50))
        _, stats = self._run(db, NARROW_SQL, ExecutionOptions(chunk_rows=25))
        assert not stats.sketch_hit

    def test_sketch_answers_identical_to_non_sketch_path(self):
        db = clustered_db()
        options = ExecutionOptions(chunk_rows=50)
        baseline, _ = self._run(db, NARROW_SQL, options)
        get_cache().clear()

        self._run(db, WIDE_SQL, options)
        # NARROW's mask is not cached, so it re-evaluates through the sketch.
        result, stats = self._run(db, NARROW_SQL, options)
        assert stats.sketch_hit
        assert result.rows == baseline.rows
        assert result.raw_counts == baseline.raw_counts


# ----------------------------------------------------------------------
# Invalidation: mutation must never serve a stale sketch
# ----------------------------------------------------------------------
SPEC = dict(
    categoricals=[
        CategoricalSpec("color", 20, 1.5),
        CategoricalSpec("status", 4, 0.8),
    ],
    measures=[MeasureSpec("amount", distribution="lognormal")],
)


def sketch_anchor_ids() -> set[int]:
    """Identities of every column a live sketch slot is anchored on."""
    return {
        anchor_id
        for kind, anchor_ids, _extra in list(get_cache()._entries)
        if kind == sel.SKETCH_KIND
        for anchor_id in anchor_ids
    }


class TestSketchInvalidation:
    def test_append_rows_never_serves_stale_sketch(self):
        db = clustered_db()
        options = ExecutionOptions(chunk_rows=50)
        execute(db, parse_query(WIDE_SQL), options=options)
        stats = PieceSkipStats("t")
        execute(
            db, parse_query(NARROW_SQL), options=options, skip_stats=stats
        )
        assert stats.sketch_hit  # the sketch was live before the append

        # The appended rows match the predicate.  The append invalidates
        # the old columns, sketches included, so the next evaluation
        # scans the new table from its zone maps instead.
        batch = Table(
            "t",
            {
                "x": Column.ints(np.full(100, 200)),
                "grp": Column.strings(["z"] * 100),
            },
        )
        db.append_rows("t", batch)
        after_stats = PieceSkipStats("t")
        after = execute(
            db, parse_query(NARROW_SQL), options=options, skip_stats=after_stats
        )
        assert not after_stats.sketch_hit
        assert after.rows[()][0] == float(161 + 100)  # 120..280 plus appended

        # Identical to a database built directly from the final data.
        fresh = Database(
            [
                Table(
                    "t",
                    {
                        "x": Column.ints(
                            np.concatenate([np.arange(400), np.full(100, 200)])
                        ),
                        "grp": Column.strings(
                            ["abcdefgh"[(i // 50) % 8] for i in range(400)]
                            + ["z"] * 100
                        ),
                    },
                )
            ]
        )
        get_cache().clear()
        baseline = execute(fresh, parse_query(NARROW_SQL), options=options)
        assert after.rows == baseline.rows
        assert after.raw_counts == baseline.raw_counts

    def test_drop_table_drops_sketches(self):
        db = clustered_db()
        options = ExecutionOptions(chunk_rows=50)
        execute(db, parse_query(WIDE_SQL), options=options)
        assert sketch_anchor_ids()
        db.drop_table("t")
        assert not sketch_anchor_ids()

    @pytest.mark.parametrize("path", ["drop_table", "append_rows", "insert_rows"])
    def test_mutation_drops_sketches_through_invalidate_table(
        self, path, monkeypatch
    ):
        invalidated: list[Table] = []
        invalidate_table = ExecutionCache.invalidate_table

        def spy(cache, table):
            invalidated.append(table)
            return invalidate_table(cache, table)

        monkeypatch.setattr(ExecutionCache, "invalidate_table", spy)
        options = ExecutionOptions(chunk_rows=50)
        if path == "insert_rows":
            db = Database([generate_flat_table("flat", 4000, seed=31, **SPEC)])
            technique = SmallGroupSampling(
                SmallGroupConfig(base_rate=0.05, use_reservoir=False, seed=31)
            )
            technique.preprocess(db)
            technique.answer(
                parse_query(
                    "SELECT status, COUNT(*) AS cnt FROM flat "
                    "WHERE amount BETWEEN 0.5 AND 50.0 GROUP BY status"
                )
            )
        else:
            db = clustered_db()
            execute(db, parse_query(WIDE_SQL), options=options)
        before = sketch_anchor_ids()
        invalidated.clear()

        if path == "drop_table":
            db.drop_table("t")
        elif path == "append_rows":
            db.append_rows("t", db.table("t").head(10))
        else:
            technique.insert_rows(
                generate_flat_table("flat", 1000, seed=77, **SPEC)
            )

        replaced = {
            id(table.column(name))
            for table in invalidated
            for name in table.column_names
        }
        assert before & replaced, "no sketch was anchored on a replaced table"
        assert not sketch_anchor_ids() & replaced

    def test_insert_rows_sample_maintenance_not_stale(self):
        db = Database([generate_flat_table("flat", 4000, seed=31, **SPEC)])
        technique = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.05, use_reservoir=False, seed=31)
        )
        technique.preprocess(db)
        query = parse_query(
            "SELECT status, COUNT(*) AS cnt, SUM(amount) AS total "
            "FROM flat WHERE amount BETWEEN 0.5 AND 50.0 GROUP BY status"
        )
        technique.answer(query)  # warms sketches over the sample tables
        technique.insert_rows(generate_flat_table("flat", 1000, seed=77, **SPEC))

        # Staleness oracle: the answer with whatever sketches survived
        # the mutation must equal the answer with no sketches at all.
        after = technique.answer(query)
        get_cache().clear()
        clean = technique.answer(query)
        assert set(after.groups) == set(clean.groups)
        for group, estimates in clean.groups.items():
            for mine, other in zip(estimates, after.groups[group]):
                assert other.value == mine.value, group
                assert other.variance == mine.variance, group
