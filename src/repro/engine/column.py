"""Columnar storage primitives.

A :class:`Column` is an immutable, numpy-backed vector with one of three
logical kinds:

* ``INT`` — 64-bit integers,
* ``FLOAT`` — 64-bit floats,
* ``STRING`` — dictionary-encoded categorical strings: an ``int32`` code
  array plus a list of distinct values.  Group-by and predicate evaluation
  operate on the codes, which is what makes the engine fast enough to run
  the paper's experiments in pure Python + numpy.

Columns deliberately expose a small surface: element access, ``take`` (row
selection), value frequencies, and conversion back to Python objects.  The
query executor works on the underlying arrays directly.

Appends are *tail writes* (:meth:`Column.concat`): the result is a new
:class:`Column` whose ``data`` views ``n + m`` cells of a private,
over-allocated buffer that the appended-to column already viewed the
first ``n`` cells of.  Only the ``m`` new cells are written, and cells a
column can see are never written again, so every column stays an
immutable snapshot of its own rows while an append costs O(batch).
A column that will be appended to right away (a loaded one) starts at
the head of such a buffer (:meth:`Column.with_room`), so even its first
append is a tail write.

Because a column never changes, state derived from it (grouping codes,
join positions, WHERE masks) is memoised *on* it (:meth:`Column.derived`)
and dies with it; an append publishes new columns with empty memos.
"""

from __future__ import annotations

import enum
import threading
from collections import Counter
from collections.abc import Callable, Hashable, Iterable, Sequence
from typing import Any

import numpy as np

from repro.engine.cache import get_cache
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

    Notes
    -----
    **Prefix immutability.**  A column is a fixed-length, read-only
    snapshot: the ``len(self)`` cells ``data`` exposes never change once
    the column exists, which is what lets :meth:`derived` memoise state
    computed from them on the column itself.  ``data`` may be a view
    over a longer private buffer shared with the columns this one was
    extended from or into (:meth:`concat`); cells past ``len(self)``
    belong to later snapshots and are invisible here.  Nothing outside
    :meth:`concat` and :meth:`with_room` may write into ``data``.
    Copies (:meth:`take`, :meth:`mask`, :meth:`concat`, pickling) start
    with an empty memo.
    """

    __slots__ = (
        "kind",
        "data",
        "dictionary",
        "_dictionary_index",
        "_tail",
        "_memo",
        "__weakref__",
    )

    def __init__(
        self,
        kind: ColumnKind,
        data: np.ndarray,
        dictionary: Sequence[str] | None = None,
    ) -> None:
        values: tuple[str, ...] | None = None
        if kind is ColumnKind.STRING:
            if dictionary is None:
                raise ColumnTypeError("STRING columns require a dictionary")
            if data.dtype != np.int32:
                data = data.astype(np.int32)
            values = tuple(dictionary)
            _require_valid_dictionary(values)
            _require_codes_in_range(data, len(values))
        else:
            if dictionary is not None:
                raise ColumnTypeError("numeric columns must not have a dictionary")
            wanted = np.int64 if kind is ColumnKind.INT else np.float64
            if data.dtype != wanted:
                data = data.astype(wanted)
        self.kind = kind
        self.data = data
        self.dictionary = values
        self._dictionary_index: dict[str, int] | None = None
        self._tail: _TailBuffer | None = None
        self._memo: tuple[int, dict] | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_values(values: Iterable[Any]) -> "Column":
        """Build a column from Python values, inferring the kind.

        Strings become a dictionary-encoded ``STRING`` column; bools and ints
        become ``INT``; anything float-like becomes ``FLOAT``.
        """
        if not isinstance(values, (list, tuple)):
            values = list(values)
        if not values:
            return Column.ints([])
        first = values[0]
        if isinstance(first, str):
            return Column.strings(values)
        # For a list led by a plain Python number (what JSON and the loaders
        # deliver) numpy's own dtype inference is the one pass: an integer
        # or bool result means every value was int-like, a float result
        # after a float that the rest were numbers.  Everything else — a
        # numpy scalar or None first, huge ints, strings or None among the
        # numbers — takes only the per-value checks below and fails, or
        # converts, exactly as they decide.  (The two paths agree on
        # scalars; a 0-d array *inside* the list counts as its value here
        # and as a non-int there.)
        int_like = (bool, int, np.integer)
        if type(first) in (int, bool, float):
            inferred = np.asarray(values)
            if inferred.ndim == 1:
                if type(first) is not float:
                    if inferred.dtype.kind in "bi":
                        return Column(ColumnKind.INT, inferred)
                elif inferred.dtype.kind == "f":
                    return Column(ColumnKind.FLOAT, inferred)
        if isinstance(first, int_like) and all(
            isinstance(v, int_like) for v in values
        ):
            return Column.ints(values)
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
        """Build a dictionary-encoded ``STRING`` column from raw strings.

        Hash encoding: one ``dict`` pass finds the distinct values, only
        those are sorted, and one look-up pass writes the codes — the
        same sorted dictionary and codes ``numpy.unique`` over the whole
        list would give, without sorting every row.
        """
        if not isinstance(values, (list, tuple)):
            values = list(values)
        try:
            distinct: Iterable[Any] = dict.fromkeys(values)
        except TypeError:  # unhashable, so not a str: report the first non-str
            distinct = [next(v for v in values if not isinstance(v, str))]
        for v in distinct:
            if not isinstance(v, str):
                raise ColumnTypeError(f"expected str, got {type(v).__name__}")
        dictionary = sorted(distinct)
        index = dict(zip(dictionary, range(len(dictionary))))
        codes = np.fromiter(
            map(index.__getitem__, values), dtype=np.int32, count=len(values)
        )
        return Column(
            ColumnKind.STRING, codes, tuple(str(v) for v in dictionary)
        )

    @staticmethod
    def from_codes(codes: np.ndarray, dictionary: Sequence[str]) -> "Column":
        """Build a ``STRING`` column from pre-computed codes."""
        return Column(ColumnKind.STRING, np.asarray(codes, dtype=np.int32), dictionary)

    @staticmethod
    def with_room(
        kind: ColumnKind,
        data: np.ndarray,
        dictionary: Sequence[str] | None = None,
    ) -> "Column":
        """A checked column whose first :meth:`concat` is a tail write.

        Takes the constructor's arguments and checks them the same way,
        then copies the rows once into the head of a buffer with the
        spare capacity a re-allocating ``concat`` would leave
        (:func:`_capacity`); ``data`` is a read-only view of the first
        ``len(data)`` cells.  For columns that will be appended to, such
        as the ones :func:`repro.storage.load_table` returns: without the
        room, the first append would copy every stored row while the
        loaded arrays are still alive.
        """
        checked = Column(kind, data, dictionary)
        n = len(checked)
        cells = np.empty(_capacity(n), dtype=checked.data.dtype)
        cells[:n] = checked.data
        head = cells[:n]
        head.flags.writeable = False
        return column_from_parts(
            kind, head, checked.dictionary, None, _TailBuffer(cells, n)
        )

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

    def __reduce__(self) -> tuple:
        # A copy (pickle, ``copy.deepcopy``) carries its own rows only: it
        # must not join the original's buffer lineage (nor pickle its lock).
        return column_from_parts, (self.kind, self.data, self.dictionary)

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
        return self._index().get(value, -1)

    def _index(self) -> dict[str, int]:
        """Value → code for the dictionary, built once per dictionary."""
        index = self._dictionary_index
        if index is None:
            dictionary = self.require_dictionary()
            index = dict(zip(dictionary, range(len(dictionary))))
            self._dictionary_index = index
        return index

    def derived(
        self,
        kind: str,
        key: Hashable,
        compute: Callable[[], Any],
        also: tuple["Column", ...] = (),
    ) -> Any:
        """``compute()``, memoised on this column under ``(kind, key)``.

        ``also`` lists the other columns the value depends on: the memo
        holds them and serves the value only while the caller passes the
        very same objects (a held object's ``id`` cannot be reused, so
        ``is`` is a complete check); otherwise it recomputes and replaces
        the entry.  Entries filled before the last
        :meth:`~repro.engine.cache.DerivedState.clear` are discarded on
        the next read.  Hits and misses are counted per ``kind``.

        Lock-free: concurrent misses may each compute, and the last
        store wins — values are pure functions of immutable columns.
        ``key`` must be hashable.
        """
        state = get_cache()
        memo = self._memo
        if memo is None or memo[0] != state.generation:
            memo = self._memo = (state.generation, {})
        entries = memo[1]
        slot = (kind, key)
        entry = entries.get(slot)
        if entry is not None and all(
            held is wanted for held, wanted in zip(entry[0], also)
        ):
            state.metrics.record_hit(kind)
            return entry[1]
        state.metrics.record_miss(kind)
        value = compute()
        entries[slot] = (also, value)
        return value

    def decode(self, code: int) -> str:
        """Return the string value for a dictionary ``code``."""
        if self.kind is not ColumnKind.STRING:
            raise ColumnTypeError("decode only applies to string columns")
        return self.require_dictionary()[code]

    # ------------------------------------------------------------------
    # Row operations
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Column":
        """Return a new column with the rows at ``indices`` (in order).

        The rows are this column's, so the result shares its dictionary
        and dictionary index and skips the constructor's checks.
        """
        return column_from_parts(
            self.kind, self.data[indices], self.dictionary, self._dictionary_index
        )

    def mask(self, keep: np.ndarray) -> "Column":
        """Return a new column with only the rows where ``keep`` is True."""
        return column_from_parts(
            self.kind, self.data[keep], self.dictionary, self._dictionary_index
        )

    def concat(self, other: "Column") -> "Column":
        """Concatenate two columns of the same kind.

        For string columns the dictionaries are merged (the result uses this
        column's dictionary extended with any new values from ``other``;
        the very same tuple when ``other`` brings none).

        Costs O(``len(other)``) when this column is the newest of its
        lineage and its buffer has room: ``other``'s cells are written
        into the spare capacity past ``len(self)`` and the result views
        ``len(self) + len(other)`` cells of the same buffer.  Otherwise —
        a second ``concat`` off one base, a column built neither by
        ``concat`` nor by :meth:`with_room`, no room left — the rows are
        copied once into a new, geometrically larger buffer.  Either way
        ``self`` is untouched.
        """
        if self.kind is not other.kind:
            raise ColumnTypeError(
                f"cannot concat {self.kind.value} with {other.kind.value}"
            )
        if self.kind is not ColumnKind.STRING:
            return self._extended(other.data, None, None)
        coded = other.encoded_like(self)
        index = (
            self._dictionary_index
            if coded.dictionary is self.dictionary
            else coded._dictionary_index
        )
        return self._extended(coded.data, coded.dictionary, index)

    def encoded_like(self, reference: "Column") -> "Column":
        """This string column's values, coded against ``reference``'s dictionary.

        The result's dictionary is ``reference``'s — the very same tuple
        when every value here already occurs in it, else extended
        (append-only) by the values it lacks — so a ``concat`` onto
        ``reference``, or onto any column sharing its dictionary, maps no
        codes.  Encoding one batch once and concatenating slices of it
        onto many tables costs one dictionary pass instead of one per
        table.  Returns ``self`` when nothing needs re-coding.
        """
        if self.kind is not ColumnKind.STRING or reference.kind is not self.kind:
            raise ColumnTypeError("encoded_like only applies to string columns")
        own = self.require_dictionary()
        dictionary = reference.require_dictionary()
        if own is dictionary:
            return self
        # A foreign dictionary: the codes are about to index a remap table
        # (or be taken as they stand), so they are checked first.
        codes = self.data
        _require_codes_in_range(codes, len(own))
        if own[: len(dictionary)] == dictionary:
            # ``own`` already is the reference's dictionary, extended:
            # the codes agree as they stand.
            if len(own) > len(dictionary):
                return self
            return column_from_parts(
                self.kind, codes, dictionary, reference._dictionary_index
            )
        index = reference._index()
        remap = np.fromiter(
            (index.get(v, -1) for v in own), dtype=np.int32, count=len(own)
        )
        unseen = np.flatnonzero(remap < 0)
        if unseen.size:
            new_values = [own[i] for i in unseen.tolist()]
            new_codes = range(len(dictionary), len(dictionary) + len(new_values))
            remap[unseen] = new_codes
            dictionary = dictionary + tuple(new_values)
            index = dict(index)
            index.update(zip(new_values, new_codes))
        if codes.size:
            codes = remap[codes]
        return column_from_parts(self.kind, codes, dictionary, index)

    def _extended(
        self,
        tail: np.ndarray,
        dictionary: tuple[str, ...] | None,
        index: dict[str, int] | None,
    ) -> "Column":
        """A new column holding this column's cells followed by ``tail``."""
        n, m = len(self), int(tail.shape[0])
        buffer = self._tail
        if buffer is None or not buffer.reserve(n, m):
            cells = np.empty(_capacity(n + m), dtype=self.data.dtype)
            cells[:n] = self.data
            buffer = _TailBuffer(cells, n + m)
        # Cells [n, n + m) are reserved for this call alone and no column
        # views them yet.
        buffer.cells[n : n + m] = tail
        data = buffer.cells[: n + m]
        data.flags.writeable = False
        return column_from_parts(self.kind, data, dictionary, index, buffer)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
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


def _require_valid_dictionary(dictionary: tuple[str, ...]) -> None:
    """Raise unless ``dictionary`` holds distinct ``str`` values.

    A repeated value would split its rows between two codes, so
    :meth:`Column.code_for` (and every predicate built on it) would miss
    the rows coded with the other copy.
    """
    for value in dictionary:
        if not isinstance(value, str):
            raise ColumnTypeError(
                f"string dictionary holds {value!r} of type "
                f"{type(value).__name__}, not str"
            )
    if len(set(dictionary)) != len(dictionary):
        repeated = next(v for v, n in Counter(dictionary).items() if n > 1)
        raise ColumnTypeError(
            f"string dictionary repeats the value {repeated!r}"
        )


def _require_codes_in_range(codes: np.ndarray, size: int) -> None:
    """Raise unless every dictionary code in ``codes`` is in ``[0, size)``."""
    if codes.size and (codes.min() < 0 or codes.max() >= size):
        raise ColumnTypeError(
            f"string codes out of range for dictionary of size {size}"
        )


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


#: Spare capacity a re-allocating :meth:`Column.concat` (and
#: :meth:`Column.with_room`) leaves behind the rows it copies:
#: ``rows >> _GROWTH_SHIFT`` cells (25 %), at least ``_MIN_SPARE_CELLS``.
#: That keeps re-allocations rare (about one per 120 appends of 2,048
#: rows onto 1M rows) for a few MiB of peak RSS (docs/internals.md §11).
_GROWTH_SHIFT = 2
_MIN_SPARE_CELLS = 64


def _capacity(rows: int) -> int:
    """Cells of a buffer that holds ``rows`` plus the standard spare room."""
    return rows + max(rows >> _GROWTH_SHIFT, _MIN_SPARE_CELLS)


class _TailBuffer:
    """The over-allocated cell array shared by one lineage of columns.

    ``used`` is the length of the lineage's newest column.  A column of
    ``start`` cells may extend in place only while it *is* the newest
    (``used == start``) and its tail fits; :meth:`reserve` checks and
    claims the cells atomically, so of two appends racing off one base
    exactly one extends in place and the other copies.
    """

    __slots__ = ("cells", "used", "_lock")

    def __init__(self, cells: np.ndarray, used: int) -> None:
        self.cells = cells
        self.used = used
        self._lock = threading.Lock()

    def reserve(self, start: int, count: int) -> bool:
        """Claim cells ``[start, start + count)``; False if not available."""
        with self._lock:
            if self.used != start or start + count > self.cells.shape[0]:
                return False
            self.used = start + count
            return True


def column_from_parts(
    kind: ColumnKind,
    data: np.ndarray,
    dictionary: tuple[str, ...] | None,
    dictionary_index: dict[str, int] | None = None,
    tail: _TailBuffer | None = None,
) -> Column:
    """Reassemble a column from already-validated parts, without copying.

    Trusted fast path for :meth:`Column.take`, :meth:`Column.mask`,
    :meth:`Column.concat`, :meth:`Column.encoded_like` and
    :meth:`Column.with_room`: the parts came out of real :class:`Column`
    objects, so the constructor's dtype coercion and string-code range
    scan (an O(n) min/max over the whole array) would re-validate what
    is known-good — and ``astype`` would copy a view it exists to avoid.
    Without ``tail`` (every caller but ``concat`` and ``with_room``) the
    column never extends in place.
    """
    column = Column.__new__(Column)
    column.kind = kind
    column.data = data
    column.dictionary = dictionary
    column._dictionary_index = dictionary_index
    column._tail = tail
    column._memo = None
    return column
