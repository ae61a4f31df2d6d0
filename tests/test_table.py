"""Unit tests for the Table container."""

import numpy as np
import pytest

from repro.engine.bitmask import BitmaskVector
from repro.engine.column import Column
from repro.engine.table import Table
from repro.errors import SchemaError


class TestConstruction:
    def test_from_dict(self, small_table):
        assert small_table.n_rows == 8
        assert small_table.column_names == ["a", "b", "v"]

    def test_empty_columns_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", {})

    def test_length_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            Table("t", {"a": Column.ints([1]), "b": Column.ints([1, 2])})

    def test_bitmask_length_mismatch(self):
        with pytest.raises(SchemaError):
            Table("t", {"a": Column.ints([1, 2])}, BitmaskVector(3, 4))


class TestAccess:
    def test_column_missing(self, small_table):
        with pytest.raises(SchemaError, match="no column"):
            small_table.column("zz")

    def test_has_column(self, small_table):
        assert small_table.has_column("a")
        assert not small_table.has_column("zz")

    def test_row(self, small_table):
        assert small_table.row(0) == {"a": "x", "b": 1, "v": 10.0}

    def test_to_rows(self, small_table):
        rows = small_table.to_rows()
        assert rows[0] == ("x", 1, 10.0)
        assert len(rows) == 8

    def test_memory_bytes_positive(self, small_table):
        assert small_table.memory_bytes() > 0

    def test_repr(self, small_table):
        assert "n_rows=8" in repr(small_table)


class TestOps:
    def test_take_preserves_order(self, small_table):
        t = small_table.take(np.array([7, 0]))
        assert t.column("v").to_list() == [80.0, 10.0]

    def test_filter(self, small_table):
        keep = np.array([True] * 3 + [False] * 5)
        assert small_table.filter(keep).n_rows == 3

    def test_filter_shape_mismatch(self, small_table):
        with pytest.raises(SchemaError):
            small_table.filter(np.array([True]))

    def test_select(self, small_table):
        t = small_table.select(["v", "a"])
        assert t.column_names == ["v", "a"]

    def test_rename(self, small_table):
        assert small_table.rename("other").name == "other"

    def test_with_column_adds(self, small_table):
        t = small_table.with_column("w", Column.ints(range(8)))
        assert t.column("w").to_list() == list(range(8))
        assert small_table.has_column("w") is False  # original untouched

    def test_with_column_replaces(self, small_table):
        t = small_table.with_column("b", Column.ints([0] * 8))
        assert t.column("b").to_list() == [0] * 8

    def test_with_column_length_mismatch(self, small_table):
        with pytest.raises(SchemaError):
            small_table.with_column("w", Column.ints([1]))

    def test_concat(self, small_table):
        merged = small_table.concat(small_table)
        assert merged.n_rows == 16

    def test_concat_column_mismatch(self, small_table):
        with pytest.raises(SchemaError):
            small_table.concat(small_table.select(["a", "b"]))

    def test_head(self, small_table):
        assert small_table.head(3).n_rows == 3
        assert small_table.head(100).n_rows == 8

    def test_take_carries_bitmask(self):
        vec = BitmaskVector.from_membership(
            np.array([[0, 0, 0], [0, 0, 1], [0, 0, 0]]), 4
        )
        t = Table("t", {"a": Column.ints([1, 2, 3])}, vec)
        taken = t.take(np.array([1]))
        assert taken.bitmask is not None
        assert taken.bitmask.row_mask(0).bits() == [2]

    def test_with_bitmask(self, small_table):
        vec = BitmaskVector(8, 4)
        t = small_table.with_bitmask(vec)
        assert t.bitmask is vec
        assert small_table.bitmask is None
