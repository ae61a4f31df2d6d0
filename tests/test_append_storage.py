"""Tail-write column storage and hash dictionary encoding.

The append contract under test (``docs/internals.md`` §7/§10): a
``concat`` returns a *new* column that may share a private buffer with
the column it extended, every column ever produced stays an immutable
snapshot of its own rows (prefix immutability), two appends off one base
never share tail cells, dictionaries only ever grow at the end — and an
append costs work and memory proportional to the batch, not the table,
from the first append onto a loaded table on.
"""

from __future__ import annotations

import copy
import json
import pickle
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.smallgroup import SmallGroupConfig, SmallGroupSampling
from repro.datagen.synthetic import (
    CategoricalSpec,
    MeasureSpec,
    generate_flat_table,
)
from repro.engine.bitmask import BitmaskVector
from repro.engine.column import Column, ColumnKind, column_from_parts
from repro.engine.database import Database
from repro.engine.table import Table
from repro.errors import ColumnTypeError
from repro.storage import load_database, load_table, save_database, save_table

WORDS = ["ash", "birch", "cedar", "élan", "ärger", "日本", "zeta", ""]

KINDS = {
    "int": (Column.ints, st.integers(-(2**40), 2**40)),
    "float": (
        Column.floats,
        st.floats(allow_nan=False, allow_infinity=False, width=32),
    ),
    "string": (Column.strings, st.sampled_from(WORDS)),
}


# ----------------------------------------------------------------------
# Random programs over columns
# ----------------------------------------------------------------------
@st.composite
def column_programs(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    _, element = KINDS[kind]
    steps = []
    for _ in range(draw(st.integers(1, 14))):
        op = draw(st.sampled_from(["concat", "concat", "concat", "take", "mask"]))
        # ``source`` picks any column built so far (modulo), so a concat
        # off a column that already has a child is a fork.
        source = draw(st.integers(0, 64))
        if op == "concat":
            steps.append((op, source, draw(st.lists(element, max_size=12))))
        else:
            steps.append((op, source, draw(st.integers(0, 2**32 - 1))))
    return kind, draw(st.lists(element, max_size=12)), steps


class TestColumnPrograms:
    @given(column_programs())
    @settings(max_examples=200, deadline=None)
    def test_every_column_keeps_its_rows_after_all_later_operations(self, program):
        kind, initial, steps = program
        build, _ = KINDS[kind]
        columns = [build(initial)]
        expected = [list(initial)]
        children: dict[int, list[int]] = {}
        for op, source, argument in steps:
            source %= len(columns)
            base, rows = columns[source], expected[source]
            if op == "concat":
                result = base.concat(build(argument))
                reference = rows + list(argument)
                children.setdefault(source, []).append(len(columns))
                if kind == "string":
                    # Append-only dictionaries: old codes keep their meaning.
                    grown = result.dictionary
                    assert grown[: len(base.dictionary)] == base.dictionary
                    assert len(set(grown)) == len(grown)
            else:
                rng = np.random.default_rng(argument)
                if op == "take":
                    picks = rng.integers(0, len(rows), len(rows)) if rows else np.zeros(0, int)
                    result = base.take(picks)
                else:
                    picks = np.flatnonzero(rng.random(len(rows)) < 0.5)
                    result = base.mask(np.isin(np.arange(len(rows)), picks))
                reference = [rows[i] for i in picks.tolist()]
            columns.append(result)
            expected.append(reference)
            # Prefix immutability: nothing built so far has moved.
            for column, want in zip(columns, expected):
                assert column.to_list() == want

        if kind != "string":
            for column, want in zip(columns, expected):
                assert np.array_equal(
                    column.data, np.asarray(want, dtype=column.data.dtype)
                )
        # Forks never share tail cells.
        for parent, kids in children.items():
            n = len(columns[parent])
            for i, a in enumerate(kids):
                for b in kids[i + 1 :]:
                    assert not np.shares_memory(
                        columns[a].data[n:], columns[b].data[n:]
                    )

    def test_tip_append_writes_in_place_and_fork_copies(self):
        base = Column.ints(range(1000)).concat(Column.ints([1000]))
        first = base.concat(Column.ints([7, 8]))
        second = base.concat(Column.ints([9]))
        assert np.shares_memory(first.data, base.data)  # spare capacity used
        assert not np.shares_memory(second.data, base.data)  # fork: own copy
        assert first.to_list()[-3:] == [1000, 7, 8]
        assert second.to_list()[-2:] == [1000, 9]
        assert base.to_list() == list(range(1001))
        # The non-tip base can be appended to again; it forks again.
        third = base.concat(Column.ints([5]))
        assert not np.shares_memory(third.data, first.data)
        assert first.to_list()[-3:] == [1000, 7, 8]

    def test_large_buffers_behave_like_small_ones(self):
        # A buffer of several MiB, where numpy's allocator maps pages directly.
        values = np.arange(600_000, dtype=np.int64)
        base = Column.ints(values)
        first = base.concat(Column.ints([1, 2, 3]))
        second = first.concat(Column.ints([4]))
        assert np.array_equal(first.data, np.concatenate([values, [1, 2, 3]]))
        assert np.array_equal(second.data, np.concatenate([values, [1, 2, 3, 4]]))
        assert np.shares_memory(second.data, first.data)
        assert not first.data.flags.writeable
        del base, first  # the buffer outlives the older snapshots
        assert second.data[-1] == 4 and second.data[0] == 0

    def test_concat_results_are_read_only_snapshots(self):
        grown = Column.floats([1.0, 2.0]).concat(Column.floats([3.0]))
        with pytest.raises(ValueError):
            grown.data[0] = 9.0
        assert grown.concat(Column.floats([4.0])).to_list() == [1.0, 2.0, 3.0, 4.0]

    def test_dictionary_tuple_and_index_are_reused_without_new_values(self):
        base = Column.strings(["b", "a", "c"])
        assert base.code_for("c") == 2  # builds the index once
        same = base.concat(Column.strings(["a", "c"]))
        assert same.dictionary is base.dictionary
        assert same._dictionary_index is base._dictionary_index
        grown = same.concat(Column.strings(["d", "a"]))
        assert grown.dictionary == ("a", "b", "c", "d")
        assert grown.code_for("d") == 3
        assert same.code_for("d") == -1  # the older snapshot is unchanged
        assert grown.to_list() == ["b", "a", "c", "a", "c", "d", "a"]

    @given(
        st.lists(st.sampled_from(WORDS), max_size=20),
        st.lists(st.sampled_from(WORDS), max_size=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_encoded_like_keeps_values_and_extends_the_reference(self, own, other):
        column, reference = Column.strings(own), Column.strings(other)
        coded = column.encoded_like(reference)
        assert coded.to_list() == own
        assert coded.dictionary[: len(reference.dictionary)] == reference.dictionary
        if set(own) <= set(other):
            assert coded.dictionary is reference.dictionary
        merged = reference.concat(coded)
        assert merged.dictionary is coded.dictionary
        assert merged.to_list() == other + own


    @given(
        st.sampled_from(sorted(KINDS)),
        st.data(),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_gathered_concat_equals_take_then_concat(
        self, kind, data, gather, select
    ):
        build, element = KINDS[kind]
        base = build(data.draw(st.lists(element, max_size=12)))
        base = base.concat(build([]))  # a tip with spare capacity
        other = build(data.draw(st.lists(element, min_size=1, max_size=12)))
        indices = st.lists(st.integers(0, len(other) - 1), max_size=8)
        rows = np.asarray(data.draw(indices), dtype=np.intp) if gather else None
        keep = None
        if select and len(base):
            picks = st.lists(st.integers(0, len(base) - 1), max_size=8, unique=True)
            keep = np.sort(np.asarray(data.draw(picks), dtype=np.intp))
        result = base.concat(other, rows, keep)
        head = base if keep is None else base.take(keep)
        want = head.concat(other if rows is None else other.take(rows))
        assert result.to_list() == want.to_list()
        assert result.dictionary == want.dictionary
        # Without ``keep`` the tip's tail is written in place.
        assert np.shares_memory(result.data, base.data) == (keep is None and len(base) > 0)


class TestTailValidation:
    @pytest.mark.parametrize("bad", [[0, 5], [-1], [1]])
    def test_out_of_range_tail_codes_still_raise(self, bad):
        base = Column.strings(["a", "b"]).concat(Column.strings(["a"]))
        tail = column_from_parts(
            ColumnKind.STRING, np.asarray(bad, dtype=np.int32), ("a",)
        )
        with pytest.raises(ColumnTypeError):
            base.concat(tail)
        # A refused append reserves nothing: the next one extends in place.
        after = base.concat(Column.strings(["b"]))
        assert np.shares_memory(after.data, base.data)
        assert after.to_list() == ["a", "b", "a", "b"]

    def test_kind_mismatch_still_raises(self):
        with pytest.raises(ColumnTypeError):
            Column.strings(["a"]).concat(Column.ints([1]))


class TestConcurrentAppends:
    def test_threads_appending_to_one_base_get_independent_results(self):
        base = Column.ints(range(5000)).concat(Column.ints([5000]))
        texts = Column.strings(["x", "y"] * 50).concat(Column.strings(["y"]))
        n_threads = 8
        results: list = [None] * n_threads
        barrier = threading.Barrier(n_threads)

        def work(k: int) -> None:
            barrier.wait(timeout=10)
            results[k] = (
                base.concat(Column.ints([k] * (k + 1))),
                texts.concat(Column.strings([f"t{k}", "x"])),
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)

        in_place = 0
        for k, (numbers, words) in enumerate(results):
            assert numbers.to_list() == list(range(5001)) + [k] * (k + 1)
            assert words.to_list() == ["x", "y"] * 50 + ["y", f"t{k}", "x"]
            in_place += bool(np.shares_memory(numbers.data, base.data))
        assert in_place == 1  # exactly one reservation wins the spare cells
        assert base.to_list() == list(range(5001))


# ----------------------------------------------------------------------
# Random programs over bitmasked tables
# ----------------------------------------------------------------------
N_BITS = 70  # two words


def _bit_table(rows: list[tuple[int, str, int]]) -> Table:
    member = np.array(
        [[mask >> bit & 1 for bit in range(N_BITS)] for _, _, mask in rows],
        dtype=bool,
    ).reshape(len(rows), N_BITS)
    vector = BitmaskVector.from_membership(member, N_BITS)
    return Table(
        "t",
        {
            "k": Column.ints([r[0] for r in rows]),
            "s": Column.strings([r[1] for r in rows]),
        },
        vector,
    )


ROWS = st.lists(
    st.tuples(
        st.integers(-50, 50),
        st.sampled_from(WORDS),
        st.integers(0, 2**N_BITS - 1),
    ),
    max_size=6,
)


class TestTablePrograms:
    @given(
        ROWS,
        st.lists(
            st.tuples(st.sampled_from(["concat", "take", "filter"]), st.integers(0, 64), ROWS),
            min_size=1,
            max_size=10,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_bitmasked_tables_keep_rows_and_masks(self, initial, steps):
        tables, expected = [_bit_table(initial)], [list(initial)]
        for op, source, rows in steps:
            source %= len(tables)
            base, have = tables[source], expected[source]
            if op == "concat":
                result, want = base.concat(_bit_table(rows)), have + list(rows)
            else:
                picks = np.flatnonzero(np.arange(len(have)) % 2 == source % 2)
                if op == "take":
                    result = base.take(picks[::-1])
                    want = [have[i] for i in picks[::-1].tolist()]
                else:
                    result = base.filter(np.isin(np.arange(len(have)), picks))
                    want = [have[i] for i in picks.tolist()]
            tables.append(result)
            expected.append(want)
        for table, want in zip(tables, expected):
            assert table.n_rows == len(want)
            assert table.column("k").to_list() == [r[0] for r in want]
            assert table.column("s").to_list() == [r[1] for r in want]
            assert table.bitmask.to_ints() == [r[2] for r in want]


# ----------------------------------------------------------------------
# Encoding: hash dictionary vs the numpy.unique reference
# ----------------------------------------------------------------------
def _unique_reference(values: list[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """``Column.strings`` as it was: sort every row with ``numpy.unique``."""
    if not values:
        return np.empty(0, dtype=np.int32), ()
    dictionary, codes = np.unique(np.asarray(values, dtype=object), return_inverse=True)
    return codes.astype(np.int32), tuple(str(v) for v in dictionary)


def _reference_from_values(values: list) -> Column:
    """``Column.from_values`` as it was: one ``isinstance`` pass per decision."""
    if not values:
        return Column.ints([])
    first = values[0]
    if isinstance(first, str):
        for v in values:
            if not isinstance(v, str):
                raise ColumnTypeError(f"expected str, got {type(v).__name__}")
        codes, dictionary = _unique_reference(values)
        return Column(ColumnKind.STRING, codes, dictionary)
    if isinstance(first, (bool, int, np.integer)) and all(
        isinstance(v, (bool, int, np.integer)) for v in values
    ):
        return Column.ints(values)
    return Column.floats(values)


class TestHashEncoding:
    @pytest.mark.parametrize(
        "values",
        [
            [],
            ["only"],
            ["b", "a", "b", "c", "a"],
            ["z", "y", "x"],
            ["é", "e", "z", "É", "日本", "", " ", "a" * 40, "é"],
            ["same"] * 9,
        ],
    )
    def test_pinned_cases_match_numpy_unique(self, values):
        codes, dictionary = _unique_reference(values)
        column = Column.strings(values)
        assert column.dictionary == dictionary
        assert column.data.dtype == np.int32
        assert np.array_equal(column.data, codes)

    @given(st.lists(st.text(max_size=6), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_any_strings_match_numpy_unique(self, values):
        codes, dictionary = _unique_reference(values)
        column = Column.strings(iter(values))  # any iterable, one pass
        assert column.dictionary == dictionary
        assert np.array_equal(column.data, codes)

    def test_numpy_strings_become_plain_str(self):
        column = Column.strings(np.asarray(["b", "a", "b"]))
        assert column.dictionary == ("a", "b")
        assert all(type(v) is str for v in column.dictionary)

    @pytest.mark.parametrize(
        "values, name",
        [(["a", 1], "int"), (["a", None, 2], "NoneType"), (["a", ["b"], 3], "list")],
    )
    def test_first_non_string_is_reported(self, values, name):
        with pytest.raises(ColumnTypeError, match=f"expected str, got {name}"):
            Column.strings(values)

    @given(
        st.lists(
            st.one_of(
                st.integers(-(2**70), 2**70),
                st.booleans(),
                st.floats(allow_nan=False),
                st.sampled_from(["a", "3.5", "7", None, 2**63, np.int32(4), np.float32(0.5)]),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_from_values_agrees_with_the_per_value_checks(self, values):
        try:
            want = _reference_from_values(values)
        except Exception as error:  # noqa: BLE001 - compared by type below
            with pytest.raises(type(error)):
                Column.from_values(values)
            return
        got = Column.from_values(values)
        assert got.kind is want.kind
        assert got.data.dtype == want.data.dtype
        assert got.dictionary == want.dictionary
        assert np.array_equal(got.data, want.data, equal_nan=got.kind is ColumnKind.FLOAT)


    @given(
        st.lists(st.sampled_from(WORDS), max_size=20),
        st.lists(
            st.sampled_from([*WORDS, "new", "ärgste", 3, 2.5, None, ["x"], True]),
            min_size=1,
            max_size=20,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_coding_against_a_dictionary_equals_encoded_like(self, seen, values):
        like = Column.strings(seen)
        try:
            plain = Column.from_values(values)
        except Exception as error:  # noqa: BLE001 - compared by type below
            with pytest.raises(type(error)) as raised:
                Column.from_values(values, like=like)
            assert str(raised.value) == str(error)
            return
        coded = Column.from_values(values, like=like)
        if plain.kind is not ColumnKind.STRING:
            assert coded.kind is plain.kind
            assert np.array_equal(coded.data, plain.data, equal_nan=True)
            return
        want = plain.encoded_like(like)
        assert coded.dictionary == want.dictionary
        assert np.array_equal(coded.data, want.data)
        if set(values) <= set(seen):
            assert coded.dictionary is like.dictionary
            assert coded._dictionary_index is like._dictionary_index


# ----------------------------------------------------------------------
# Cost guards (counts and bytes, never wall-clock)
# ----------------------------------------------------------------------
def _flat(rows: int, seed: int) -> Table:
    return generate_flat_table(
        "flat",
        rows,
        seed=seed,
        categoricals=[CategoricalSpec("color", 20, 1.5), CategoricalSpec("status", 4, 0.8)],
        measures=[MeasureSpec("amount", distribution="lognormal")],
    )


class TestAppendCost:
    BATCH = 2048

    def _append_bytes(self, rows: int, directory=None) -> tuple[int, int]:
        """Peak traced bytes of the first and the next append.

        The first append onto an in-memory table re-allocates; with
        ``directory`` the table is saved there and loaded back first.
        """
        db = Database([_flat(rows, seed=1)])
        if directory is not None:
            db = load_database(save_database(db, directory))
        peaks = []
        tracemalloc.start()
        try:
            for seed in (2, 3):
                batch = _flat(self.BATCH, seed=seed)
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                db.append_rows("flat", batch)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        return peaks[0], peaks[1]

    def test_bytes_allocated_by_an_append_do_not_follow_table_size(self):
        _, small = self._append_bytes(100_000)
        copying, large = self._append_bytes(800_000)
        # Copying the stored rows would make this 8x ...
        assert large < 2 * small
        # ... and the one append that does copy them shows that it would be seen.
        assert copying > 800_000 * (8 + 4 + 4) > 8 * large

    def test_a_loaded_tables_first_append_does_not_follow_table_size(self, tmp_path):
        # Loaded columns start with spare capacity, so the first append
        # after a load is a tail write like every later one.
        small, _ = self._append_bytes(100_000, tmp_path / "small")
        large, _ = self._append_bytes(800_000, tmp_path / "large")
        assert large < 2 * small
        assert 8 * large < 800_000 * (8 + 4 + 4)

    def test_first_append_to_a_loaded_table_is_a_tail_write(self, tmp_path):
        table = Table(
            "t",
            {
                "i": Column.ints(range(1000)),
                "f": Column.floats(np.linspace(0.0, 1.0, 1000)),
                "s": Column.strings(["b", "a"] * 500),
            },
        )
        db = load_database(save_database(Database([table]), tmp_path / "db"))
        loaded = db.table("t")
        # The batch brings a new dictionary value, so the codes are remapped.
        batch = Table(
            "t",
            {
                "i": Column.ints([7, 8]),
                "f": Column.floats([0.5, 1.5]),
                "s": Column.strings(["new", "a"]),
            },
        )
        grown = db.append_rows("t", batch)
        for name in table.column_names:
            assert not loaded.column(name).data.flags.writeable
            assert np.shares_memory(
                grown.column(name).data, loaded.column(name).data
            ), name
        assert grown.column("s").dictionary == ("a", "b", "new")
        assert grown.to_rows() == table.concat(batch).to_rows()
        assert loaded.to_rows() == table.to_rows()

    def test_reallocations_are_geometric(self):
        db = Database([_flat(200_000, seed=1)])
        batch = _flat(self.BATCH, seed=2)
        reallocations = 0
        for _ in range(64):
            before = db.table("flat").column("amount")
            after = db.append_rows("flat", batch).column("amount")
            assert after is not before
            reallocations += not np.shares_memory(after.data, before.data)
        assert 1 <= reallocations <= 4
        assert db.table("flat").n_rows == 200_000 + 64 * self.BATCH

    def test_memory_bytes_reports_used_not_reserved(self, tmp_path):
        in_memory = Database([_flat(5000, seed=1)])
        loaded = load_database(save_database(in_memory, tmp_path / "db"))
        batch = _flat(100, seed=2)
        for db in (in_memory, loaded):
            for appends in range(4):
                grown = db.table("flat")
                packed = grown.take(np.arange(grown.n_rows))  # exact-size copies
                assert grown.memory_bytes() == packed.memory_bytes()
                assert grown.column("amount").data.nbytes == 8 * grown.n_rows
                assert grown.n_rows == 5000 + 100 * appends
                db.append_rows("flat", batch)


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
def stored_rows(image):
    """The rows ``image`` records, checking that no segment holds more.

    Reads the file: each column segment's cells past the recorded rows
    are its room, a hole that reads as zeros.
    """
    raw = image.read_bytes()
    header = json.loads(raw[16 : 16 + int.from_bytes(raw[8:16], "little")])
    n = header["n_rows"]
    for entry in header["columns"]:
        cells = np.frombuffer(raw, entry["dtype"], entry["capacity"], entry["offset"])
        assert not cells[n:].any(), entry["name"]
    return n


class TestRoundTrips:
    def test_saved_database_stores_exactly_n_rows_cells(self, tmp_path):
        db = Database([_flat(3000, seed=1)])
        for seed in (2, 3):
            db.append_rows("flat", _flat(500, seed=seed))
        table = db.table("flat")
        save_database(db, tmp_path / "db")
        assert stored_rows(tmp_path / "db" / "flat.img") == 4000
        reloaded = load_database(tmp_path / "db")
        assert reloaded.table("flat").to_rows() == table.to_rows()
        # A loaded table has spare capacity; saving it after an append
        # still stores its used cells only.
        reloaded.append_rows("flat", _flat(500, seed=4))
        save_database(reloaded, tmp_path / "again")
        assert stored_rows(tmp_path / "again" / "flat.img") == 4500

    def test_copies_carry_their_rows_only_and_leave_the_lineage(self, tmp_path):
        grown = Column.strings(["a", "b"]).concat(Column.strings(["c"]))
        stored = Table("t", {"s": Column.strings(["c", "a", "b"])})
        loaded = load_table(save_table(stored, tmp_path / "t")).column("s")
        assert not loaded.data.flags.writeable
        for original in (grown, loaded):
            for clone in (
                pickle.loads(pickle.dumps(original)),
                copy.deepcopy(original),
            ):
                assert clone == original
                assert clone.dictionary == original.dictionary
                assert clone.data.base is None or clone.data.base.shape == (3,)
                longer = clone.concat(Column.strings(["a"]))
                assert not np.shares_memory(longer.data, original.data)
            # The original is still the tip of its own lineage.
            longer = original.concat(Column.strings(["b"]))
            assert np.shares_memory(longer.data, original.data)


# ----------------------------------------------------------------------
# insert_rows: encode once, touch only the tables that receive rows
# ----------------------------------------------------------------------
class TestInsertRowsHygiene:
    def _technique(self) -> SmallGroupSampling:
        technique = SmallGroupSampling(
            SmallGroupConfig(base_rate=0.05, use_reservoir=False, seed=7)
        )
        technique.preprocess(Database([_flat(3000, seed=7)]))
        return technique

    def test_tables_that_receive_no_row_are_left_alone(self):
        technique = self._technique()
        before = {info.table.name: info.table for info in technique.sample_tables()}
        stored = {meta.name: meta.stored_rows for meta in technique.metadata()}
        # Rows carrying only the most common value of every column fall in
        # no small group class.
        source = _flat(3000, seed=7)
        common = np.ones(source.n_rows, dtype=bool)
        for name in ("color", "status"):
            codes = source.column(name).data
            common &= codes == np.bincount(codes).argmax()
        technique.insert_rows(source.filter(common).head(40))
        for meta in technique.metadata():
            assert meta.stored_rows == stored[meta.name]
            # No concat, no invalidation: the very same table object.
            assert technique.sample_catalog().table(meta.name) is before[meta.name]

        technique.insert_rows(_flat(800, seed=8))
        grown = [m for m in technique.metadata() if m.stored_rows > stored[m.name]]
        assert grown
        for meta in grown:
            table = technique.sample_catalog().table(meta.name)
            assert table is not before[meta.name]
            assert table.n_rows == meta.stored_rows

    def test_sample_tables_keep_their_dictionaries_without_new_values(self):
        technique = self._technique()
        before = {
            info.table.name: info.table.column("color").dictionary
            for info in technique.sample_tables()
        }
        technique.insert_rows(_flat(800, seed=8))
        for info in technique.sample_tables():
            assert info.table.column("color").dictionary is before[info.table.name]
