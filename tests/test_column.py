"""Unit tests for the Column primitive."""

import numpy as np
import pytest

from repro.engine.column import Column, ColumnKind
from repro.errors import ColumnTypeError, InternalError


class TestConstruction:
    def test_ints(self):
        col = Column.ints([1, 2, 3])
        assert col.kind is ColumnKind.INT
        assert col.to_list() == [1, 2, 3]
        assert col.data.dtype == np.int64

    def test_floats(self):
        col = Column.floats([1.5, 2.5])
        assert col.kind is ColumnKind.FLOAT
        assert col.to_list() == [1.5, 2.5]

    def test_strings_dictionary_encoded(self):
        col = Column.strings(["b", "a", "b", "c"])
        assert col.kind is ColumnKind.STRING
        assert col.to_list() == ["b", "a", "b", "c"]
        assert col.dictionary == ("a", "b", "c")
        assert col.data.dtype == np.int32

    def test_strings_rejects_non_str(self):
        with pytest.raises(ColumnTypeError):
            Column.strings(["a", 1])

    def test_from_values_infers_int(self):
        assert Column.from_values([1, 2]).kind is ColumnKind.INT

    def test_from_values_infers_float(self):
        assert Column.from_values([1.0, 2.0]).kind is ColumnKind.FLOAT

    def test_from_values_mixed_numeric_is_float(self):
        assert Column.from_values([1, 2.5]).kind is ColumnKind.FLOAT

    def test_from_values_infers_string(self):
        assert Column.from_values(["a"]).kind is ColumnKind.STRING

    def test_from_values_empty_is_int(self):
        col = Column.from_values([])
        assert col.kind is ColumnKind.INT
        assert len(col) == 0

    def test_from_codes(self):
        col = Column.from_codes(np.array([1, 0], dtype=np.int32), ["a", "b"])
        assert col.to_list() == ["b", "a"]

    def test_codes_out_of_range_rejected(self):
        with pytest.raises(ColumnTypeError):
            Column.from_codes(np.array([2], dtype=np.int32), ["a", "b"])

    def test_string_requires_dictionary(self):
        with pytest.raises(ColumnTypeError):
            Column(ColumnKind.STRING, np.zeros(1, dtype=np.int32))

    def test_numeric_rejects_dictionary(self):
        with pytest.raises(ColumnTypeError):
            Column(ColumnKind.INT, np.zeros(1, dtype=np.int64), ["a"])

    def test_empty_strings(self):
        col = Column.strings([])
        assert len(col) == 0
        assert col.distinct_count() == 0


class TestAccess:
    def test_getitem_decodes(self):
        col = Column.strings(["p", "q"])
        assert col[0] == "p"
        assert col[1] == "q"

    def test_getitem_numeric_python_types(self):
        assert isinstance(Column.ints([5])[0], int)
        assert isinstance(Column.floats([5.0])[0], float)

    def test_len(self):
        assert len(Column.ints([1, 2, 3])) == 3

    def test_equality(self):
        assert Column.ints([1, 2]) == Column.ints([1, 2])
        assert Column.ints([1, 2]) != Column.ints([2, 1])
        assert Column.ints([1]) != Column.floats([1.0])

    def test_string_equality_across_dictionaries(self):
        a = Column.strings(["a", "b"])
        b = Column.from_codes(np.array([0, 1], dtype=np.int32), ["a", "b"])
        assert a == b

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Column.ints([1]))

    def test_numeric_values_rejects_strings(self):
        with pytest.raises(ColumnTypeError):
            Column.strings(["a"]).numeric_values()

    def test_code_for(self):
        col = Column.strings(["a", "b"])
        assert col.code_for("a") == col.data[0]
        assert col.code_for("missing") == -1

    def test_code_for_numeric_rejected(self):
        with pytest.raises(ColumnTypeError):
            Column.ints([1]).code_for("a")

    def test_decode(self):
        col = Column.strings(["a", "b"])
        assert col.decode(int(col.data[1])) == "b"


class TestRowOps:
    def test_take(self):
        col = Column.ints([10, 20, 30])
        assert col.take(np.array([2, 0])).to_list() == [30, 10]

    def test_mask(self):
        col = Column.strings(["a", "b", "c"])
        assert col.mask(np.array([True, False, True])).to_list() == ["a", "c"]

    def test_concat_ints(self):
        col = Column.ints([1]).concat(Column.ints([2]))
        assert col.to_list() == [1, 2]

    def test_concat_kind_mismatch(self):
        with pytest.raises(ColumnTypeError):
            Column.ints([1]).concat(Column.floats([1.0]))

    def test_concat_strings_same_dictionary(self):
        a = Column.strings(["a", "b"])
        b = Column.strings(["b", "a"])
        merged = a.concat(b)
        assert merged.to_list() == ["a", "b", "b", "a"]

    def test_concat_strings_merges_dictionaries(self):
        a = Column.strings(["a", "b"])
        b = Column.strings(["c", "b"])
        merged = a.concat(b)
        assert merged.to_list() == ["a", "b", "c", "b"]
        assert set(merged.dictionary) == {"a", "b", "c"}

    def test_concat_empty_string_column(self):
        a = Column.strings(["a"])
        b = Column.strings([])
        assert a.concat(b).to_list() == ["a"]


class TestTrustedRowSelection:
    """``take``/``mask`` skip the constructor; boundaries still validate."""

    @pytest.mark.parametrize(
        "column",
        [
            Column.ints([5, -2, 7, 0]),
            Column.floats([0.5, float("nan"), -1.0, 2.0]),
            Column.strings(["b", "a", "c", "a"]),
        ],
        ids=["int", "float", "string"],
    )
    def test_take_and_mask_equal_the_validating_constructor(self, column):
        if column.dictionary is not None:
            column.code_for("a")  # build the index, so there is one to share
        picks = np.array([3, 0, 0, 2])
        keep = np.array([True, False, True, True])
        for got, rows in (
            (column.take(picks), column.data[picks]),
            (column.mask(keep), column.data[keep]),
        ):
            want = Column(column.kind, rows, column.dictionary)
            assert got.data.dtype == want.data.dtype
            assert got.data.tobytes() == want.data.tobytes()
            assert got.dictionary == want.dictionary
            assert got.dictionary is column.dictionary
            assert got._dictionary_index is column._dictionary_index

    @pytest.mark.parametrize("codes", [[-1], [0, 2]])
    def test_constructor_refuses_out_of_range_codes(self, codes):
        data = np.array(codes, dtype=np.int32)
        with pytest.raises(ColumnTypeError):
            Column(ColumnKind.STRING, data, ("a", "b"))

    @pytest.mark.parametrize(
        "dictionary", [("a", "b", "a"), ("a", None)], ids=["repeated", "non_str"]
    )
    def test_constructor_refuses_an_invalid_dictionary(self, dictionary):
        # A repeated value would split its rows between two codes.
        with pytest.raises(ColumnTypeError, match="string dictionary"):
            Column.from_codes(np.array([0, 1], dtype=np.int32), dictionary)

    def test_from_codes_refuses_negative_codes(self):
        with pytest.raises(ColumnTypeError):
            Column.from_codes(np.array([0, -1], dtype=np.int32), ["a", "b"])


class TestStats:
    def test_value_counts_strings(self):
        col = Column.strings(["a", "b", "a"])
        assert col.value_counts() == {"a": 2, "b": 1}

    def test_value_counts_ints(self):
        assert Column.ints([5, 5, 7]).value_counts() == {5: 2, 7: 1}

    def test_value_counts_empty(self):
        assert Column.ints([]).value_counts() == {}

    def test_distinct_count(self):
        assert Column.strings(["a", "b", "a"]).distinct_count() == 2

    def test_encode_value_string(self):
        col = Column.strings(["a", "b"])
        assert col.encode_value("b") == col.code_for("b")

    def test_encode_value_type_errors(self):
        with pytest.raises(ColumnTypeError):
            Column.strings(["a"]).encode_value(3)
        with pytest.raises(ColumnTypeError):
            Column.ints([1]).encode_value("a")


class TestRequireDictionary:
    def test_string_column_returns_dictionary(self):
        col = Column.strings(["a", "b"])
        assert tuple(col.require_dictionary()) == ("a", "b")

    def test_missing_dictionary_raises_internal_error(self):
        # A guard, not an assert: it must survive python -O (RL005).
        # The state is unreachable through constructors, so simulate the
        # corruption directly.
        col = Column.strings(["a"])
        col.dictionary = None
        with pytest.raises(InternalError):
            col.require_dictionary()
        with pytest.raises(InternalError):
            col.to_list()
