"""Columnar tables.

A :class:`Table` is an ordered collection of equal-length :class:`Column`
objects plus an optional per-row :class:`BitmaskVector` (used by sample
tables built by small group sampling).  Tables are value-like: row selection
and projection return new tables and never mutate the source.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Any

import numpy as np

from repro.engine.bitmask import BitmaskVector
from repro.engine.column import Column
from repro.errors import SchemaError


class Table:
    """An in-memory columnar table.

    Parameters
    ----------
    name:
        Table name used in queries and catalogs.
    columns:
        Mapping from column name to :class:`Column`.  All columns must have
        the same length.  Iteration order is preserved.
    bitmask:
        Optional per-row bitmask vector (small group sample tables only).
        Must have the same number of rows as the columns.
    """

    __slots__ = ("name", "_columns", "bitmask", "__weakref__")

    def __init__(
        self,
        name: str,
        columns: Mapping[str, Column],
        bitmask: BitmaskVector | None = None,
    ) -> None:
        if not columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        lengths = {len(col) for col in columns.values()}
        if len(lengths) != 1:
            raise SchemaError(
                f"table {name!r} has columns of differing lengths: {lengths}"
            )
        (n_rows,) = lengths
        if bitmask is not None and len(bitmask) != n_rows:
            raise SchemaError(
                f"table {name!r}: bitmask has {len(bitmask)} rows, "
                f"columns have {n_rows}"
            )
        self.name = name
        self._columns: dict[str, Column] = dict(columns)
        self.bitmask = bitmask

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_dict(name: str, data: Mapping[str, Iterable[Any]]) -> "Table":
        """Build a table from per-column Python value lists, inferring kinds."""
        columns = {col: Column.from_values(values) for col, values in data.items()}
        return Table(name, columns)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return len(next(iter(self._columns.values())))

    @property
    def column_names(self) -> list[str]:
        """Column names in definition order."""
        return list(self._columns)

    def has_column(self, name: str) -> bool:
        """Whether a column with the given name exists."""
        return name in self._columns

    def column(self, name: str) -> Column:
        """Return the column named ``name``.

        Raises
        ------
        SchemaError
            If no such column exists.
        """
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}; "
                f"columns are {self.column_names}"
            ) from None

    def row(self, index: int) -> dict[str, Any]:
        """Materialise one row as a dict (debugging / tests)."""
        return {c: col[index] for c, col in self._columns.items()}

    def to_rows(self) -> list[tuple[Any, ...]]:
        """Materialise the whole table as row tuples (tests only)."""
        lists = [col.to_list() for col in self._columns.values()]
        return list(zip(*lists)) if lists and lists[0] else (
            [] if self.n_rows == 0 else list(zip(*lists))
        )

    def memory_bytes(self) -> int:
        """Approximate storage footprint, for space-overhead accounting."""
        total = 0
        for col in self._columns.values():
            total += col.data.nbytes
            if col.dictionary is not None:
                total += sum(len(v) for v in col.dictionary)
        if self.bitmask is not None:
            total += self.bitmask.words.nbytes
        return total

    def __repr__(self) -> str:
        return (
            f"Table(name={self.name!r}, n_rows={self.n_rows}, "
            f"columns={self.column_names})"
        )

    # ------------------------------------------------------------------
    # Row / column operations
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Table":
        """Return a new table with the rows at ``indices`` (in order)."""
        indices = np.asarray(indices)
        columns = {c: col.take(indices) for c, col in self._columns.items()}
        bitmask = self.bitmask.take(indices) if self.bitmask is not None else None
        return Table(self.name, columns, bitmask)

    def filter(self, keep: np.ndarray) -> "Table":
        """Return a new table with only the rows where ``keep`` is True."""
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (self.n_rows,):
            raise SchemaError(
                f"filter mask has shape {keep.shape}, expected ({self.n_rows},)"
            )
        return self.take(np.flatnonzero(keep))

    def select(self, names: Sequence[str]) -> "Table":
        """Return a projection with the given columns, in the given order."""
        columns = {name: self.column(name) for name in names}
        return Table(self.name, columns, self.bitmask)

    def rename(self, name: str) -> "Table":
        """Return the same table under a different name."""
        return Table(name, self._columns, self.bitmask)

    def with_column(self, name: str, column: Column) -> "Table":
        """Return a new table with ``column`` added or replaced."""
        if len(column) != self.n_rows:
            raise SchemaError(
                f"column {name!r} has {len(column)} rows, table has {self.n_rows}"
            )
        columns = dict(self._columns)
        columns[name] = column
        return Table(self.name, columns, self.bitmask)

    def with_bitmask(self, bitmask: BitmaskVector | None) -> "Table":
        """Return a new table with the given bitmask vector attached."""
        return Table(self.name, self._columns, bitmask)

    def concat(
        self,
        other: "Table",
        rows: np.ndarray | None = None,
        keep: np.ndarray | None = None,
    ) -> "Table":
        """This table's rows followed by ``other``'s (identical column sets).

        ``keep`` and ``rows`` select this table's and ``other``'s rows
        (all by default), as in :meth:`Column.concat`: each column is
        written once, straight into its buffer's tail or into one new
        buffer.  Bitmask vectors are concatenated when both sides have
        one, dropped otherwise.
        """
        if self.column_names != other.column_names:
            raise SchemaError(
                "concat requires identical column lists: "
                f"{self.column_names} vs {other.column_names}"
            )
        columns = {
            c: col.concat(other._columns[c], rows, keep)
            for c, col in self._columns.items()
        }
        bitmask = None
        if self.bitmask is not None and other.bitmask is not None:
            head = self.bitmask if keep is None else self.bitmask.take(keep)
            tail = other.bitmask if rows is None else other.bitmask.take(rows)
            bitmask = head.concat(tail)
        return Table(self.name, columns, bitmask)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def head(self, n: int = 5) -> "Table":
        """Return the first ``n`` rows."""
        return self.take(np.arange(min(n, self.n_rows)))
