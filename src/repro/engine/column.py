"""Columnar storage primitives.

A :class:`Column` is an immutable-by-convention, numpy-backed vector with one
of three logical kinds:

* ``INT`` — 64-bit integers,
* ``FLOAT`` — 64-bit floats,
* ``STRING`` — dictionary-encoded categorical strings: an ``int32`` code
  array plus a list of distinct values.  Group-by and predicate evaluation
  operate on the codes, which is what makes the engine fast enough to run
  the paper's experiments in pure Python + numpy.

Columns deliberately expose a small surface: element access, ``take`` (row
selection), value frequencies, and conversion back to Python objects.  The
query executor works on the underlying arrays directly.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from repro.errors import ColumnTypeError, InternalError


class ColumnKind(enum.Enum):
    """Logical type of a column."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"


class Column:
    """A typed, numpy-backed column of values.

    Parameters
    ----------
    kind:
        The logical type of the column.
    data:
        For ``INT``/``FLOAT`` kinds, the value array.  For ``STRING``, the
        ``int32`` code array.
    dictionary:
        For ``STRING`` columns, the list of distinct string values such that
        ``dictionary[code]`` is the string for each code.  Must be ``None``
        for numeric columns.
    """

    __slots__ = ("kind", "data", "dictionary", "_dictionary_index", "__weakref__")

    def __init__(
        self,
        kind: ColumnKind,
        data: np.ndarray,
        dictionary: Sequence[str] | None = None,
    ) -> None:
        if kind is ColumnKind.STRING:
            if dictionary is None:
                raise ColumnTypeError("STRING columns require a dictionary")
            if data.dtype != np.int32:
                data = data.astype(np.int32)
            if data.size and (data.min() < 0 or data.max() >= len(dictionary)):
                raise ColumnTypeError(
                    "string codes out of range for dictionary of size "
                    f"{len(dictionary)}"
                )
        else:
            if dictionary is not None:
                raise ColumnTypeError("numeric columns must not have a dictionary")
            wanted = np.int64 if kind is ColumnKind.INT else np.float64
            if data.dtype != wanted:
                data = data.astype(wanted)
        self.kind = kind
        self.data = data
        self.dictionary: tuple[str, ...] | None = (
            tuple(dictionary) if dictionary is not None else None
        )
        self._dictionary_index: dict[str, int] | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_values(values: Iterable[Any]) -> "Column":
        """Build a column from Python values, inferring the kind.

        Strings become a dictionary-encoded ``STRING`` column; bools and ints
        become ``INT``; anything float-like becomes ``FLOAT``.
        """
        values = list(values)
        if not values:
            return Column.ints([])
        first = values[0]
        if isinstance(first, str):
            return Column.strings(values)
        if isinstance(first, bool) or isinstance(first, (int, np.integer)):
            if all(isinstance(v, (bool, int, np.integer)) for v in values):
                return Column.ints(values)
            return Column.floats(values)
        return Column.floats(values)

    @staticmethod
    def ints(values: Iterable[int] | np.ndarray) -> "Column":
        """Build an ``INT`` column."""
        return Column(ColumnKind.INT, np.asarray(values, dtype=np.int64))

    @staticmethod
    def floats(values: Iterable[float] | np.ndarray) -> "Column":
        """Build a ``FLOAT`` column."""
        return Column(ColumnKind.FLOAT, np.asarray(values, dtype=np.float64))

    @staticmethod
    def strings(values: Iterable[str]) -> "Column":
        """Build a dictionary-encoded ``STRING`` column from raw strings."""
        values = list(values)
        for v in values:
            if not isinstance(v, str):
                raise ColumnTypeError(f"expected str, got {type(v).__name__}")
        if not values:
            return Column(ColumnKind.STRING, np.empty(0, dtype=np.int32), ())
        arr = np.asarray(values, dtype=object)
        dictionary, codes = np.unique(arr, return_inverse=True)
        return Column(
            ColumnKind.STRING,
            codes.astype(np.int32),
            tuple(str(v) for v in dictionary),
        )

    @staticmethod
    def from_codes(codes: np.ndarray, dictionary: Sequence[str]) -> "Column":
        """Build a ``STRING`` column from pre-computed codes."""
        return Column(ColumnKind.STRING, np.asarray(codes, dtype=np.int32), dictionary)

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.data.shape[0])

    def __getitem__(self, index: int) -> Any:
        value = self.data[index]
        if self.kind is ColumnKind.STRING:
            return self.require_dictionary()[int(value)]
        if self.kind is ColumnKind.INT:
            return int(value)
        return float(value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        if self.kind is not other.kind or len(self) != len(other):
            return False
        if self.kind is ColumnKind.STRING:
            return self.to_list() == other.to_list()
        return bool(np.array_equal(self.data, other.data))

    def __hash__(self) -> int:  # columns are not hashable (mutable arrays)
        raise TypeError("Column objects are unhashable")

    def __repr__(self) -> str:
        return f"Column(kind={self.kind.value}, n={len(self)})"

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def is_numeric(self) -> bool:
        """Whether arithmetic aggregates (SUM/AVG) apply to this column."""
        return self.kind is not ColumnKind.STRING

    def require_dictionary(self) -> Sequence[str]:
        """The dictionary of a ``STRING`` column, with a durable guard.

        Raises
        ------
        InternalError
            If the dictionary is missing — string columns are always
            constructed with one, so this indicates a bug in repro.
        """
        if self.dictionary is None:
            raise InternalError(
                f"{self.kind.value} column is missing its dictionary"
            )
        return self.dictionary

    def to_list(self) -> list[Any]:
        """Materialise the column as a list of Python values."""
        if self.kind is ColumnKind.STRING:
            dictionary = self.require_dictionary()
            return [dictionary[code] for code in self.data]
        return self.data.tolist()

    def numeric_values(self) -> np.ndarray:
        """Return the value array for a numeric column.

        Raises
        ------
        ColumnTypeError
            If the column is a string column.
        """
        if not self.is_numeric:
            raise ColumnTypeError("column is not numeric")
        return self.data

    def code_for(self, value: str) -> int:
        """Return the dictionary code for ``value``, or ``-1`` if absent."""
        if self.kind is not ColumnKind.STRING:
            raise ColumnTypeError("code_for only applies to string columns")
        dictionary = self.require_dictionary()
        if self._dictionary_index is None:
            self._dictionary_index = {
                v: i for i, v in enumerate(dictionary)
            }
        return self._dictionary_index.get(value, -1)

    def decode(self, code: int) -> str:
        """Return the string value for a dictionary ``code``."""
        if self.kind is not ColumnKind.STRING:
            raise ColumnTypeError("decode only applies to string columns")
        return self.require_dictionary()[code]

    # ------------------------------------------------------------------
    # Row operations
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Column":
        """Return a new column with the rows at ``indices`` (in order)."""
        return Column(self.kind, self.data[indices], self.dictionary)

    def mask(self, keep: np.ndarray) -> "Column":
        """Return a new column with only the rows where ``keep`` is True."""
        return Column(self.kind, self.data[keep], self.dictionary)

    def concat(self, other: "Column") -> "Column":
        """Concatenate two columns of the same kind.

        For string columns the dictionaries are merged (the result uses this
        column's dictionary extended with any new values from ``other``).
        """
        if self.kind is not other.kind:
            raise ColumnTypeError(
                f"cannot concat {self.kind.value} with {other.kind.value}"
            )
        if self.kind is not ColumnKind.STRING:
            return Column(self.kind, np.concatenate([self.data, other.data]))
        dictionary = self.require_dictionary()
        other_dictionary = other.require_dictionary()
        if dictionary == other_dictionary:
            return Column(
                ColumnKind.STRING,
                np.concatenate([self.data, other.data]),
                dictionary,
            )
        merged = list(dictionary)
        index = {v: i for i, v in enumerate(merged)}
        remap = np.empty(len(other_dictionary), dtype=np.int32)
        for code, value in enumerate(other_dictionary):
            if value not in index:
                index[value] = len(merged)
                merged.append(value)
            remap[code] = index[value]
        other_codes = remap[other.data] if len(other) else other.data
        return Column(
            ColumnKind.STRING,
            np.concatenate([self.data, other_codes]),
            tuple(merged),
        )

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def range_summary(
        self, start: int, stop: int, distinct_cutoff: int
    ) -> tuple:
        """Zone-map summary of the rows in ``[start, stop)``.

        Numeric columns return ``(min, max, zero_count)`` as floats over
        the raw stored values (NaNs propagate into min/max, which the
        verdict logic treats as "cannot decide").  String columns return
        ``(code_set, null_count)`` where ``code_set`` is a frozenset of
        the distinct dictionary codes present, or ``None`` when the
        chunk holds more than ``distinct_cutoff`` distinct codes (a
        summary that large stops paying for itself).
        """
        data = self.data[start:stop]
        if self.kind is ColumnKind.STRING:
            codes = np.unique(data)
            if codes.size > distinct_cutoff:
                return (None, 0)
            return (frozenset(int(c) for c in codes), 0)
        mn = float(np.min(data)) if data.size else float("nan")
        mx = float(np.max(data)) if data.size else float("nan")
        zeros = int(np.count_nonzero(data == 0))
        return (mn, mx, zeros)

    def raw_value_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct raw values present (ascending) and their row counts."""
        return count_raw_values(self.data, self.kind is ColumnKind.STRING)

    def distinct_count(self) -> int:
        """Number of distinct values present in the column."""
        return int(self.raw_value_counts()[0].size)

    def decode_counts(
        self, raw_values: Iterable[Any], counts: Iterable[int]
    ) -> dict[Any, int]:
        """Decoded value → count, keys in the order of ``raw_values``."""
        if self.kind is ColumnKind.STRING:
            dictionary = self.require_dictionary()
            return dict(zip((dictionary[v] for v in raw_values), counts))
        return dict(zip(raw_values, counts))

    def value_counts(self) -> dict[Any, int]:
        """Frequency of every distinct value, keyed by the decoded value."""
        values, counts = self.raw_value_counts()
        return self.decode_counts(values.tolist(), counts.tolist())

    def encode_value(self, value: Any) -> float | int:
        """Map a user-facing value onto the internal representation.

        For string columns returns the dictionary code (``-1`` if the value
        never occurs); numeric values pass through unchanged.
        """
        if self.kind is ColumnKind.STRING:
            if not isinstance(value, str):
                raise ColumnTypeError(
                    f"string column compared against {type(value).__name__}"
                )
            return self.code_for(value)
        if isinstance(value, str):
            raise ColumnTypeError("numeric column compared against str")
        return value


def count_raw_values(
    data: np.ndarray, is_codes: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct raw values in ``data`` (ascending) and their row counts.

    The first pre-processing scan's one kernel.  Dictionary codes are
    small non-negative integers, so they are counted into a histogram in
    one pass with no sort; numeric values go through ``numpy.unique``.
    Both orders are ascending raw value.
    """
    if not is_codes:
        return np.unique(data, return_counts=True)
    histogram = np.bincount(data)
    present = np.flatnonzero(histogram)
    return present, histogram[present]


def column_from_parts(
    kind: ColumnKind,
    data: np.ndarray,
    dictionary: tuple[str, ...] | None,
) -> Column:
    """Reassemble a column from already-validated parts, without copying.

    Trusted fast path for the shared-memory arena
    (:mod:`repro.engine.procpool`): the parts came out of a real
    :class:`Column` in the parent process, so the constructor's dtype
    coercion and string-code range scan (an O(n) min/max over the whole
    array) would re-validate what is known-good — and ``astype`` would
    copy the zero-copy shared view it exists to avoid.
    """
    column = Column.__new__(Column)
    column.kind = kind
    column.data = data
    column.dictionary = dictionary
    column._dictionary_index = None
    return column
