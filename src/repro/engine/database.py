"""Database catalog: named tables plus optional star-schema metadata.

:class:`Database` is the unit the AQP techniques pre-process and the
executor runs against.  For star schemas it can materialise the *joined
view* (fact ⋈ all dimensions) that the paper calls "the database" for the
purposes of sampling; samples drawn from that view are join synopses [3].
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.engine.column import Column
from repro.engine.schema import StarSchema
from repro.engine.table import Table
from repro.errors import SchemaError


def _key_positions(dim_keys: np.ndarray, fact_keys: np.ndarray) -> np.ndarray:
    """Map each fact-table key to its row position in the dimension table.

    Raises
    ------
    SchemaError
        If a fact key has no matching dimension row (violated FK) or a
        dimension key is duplicated.
    """
    order = np.argsort(dim_keys, kind="stable")
    sorted_keys = dim_keys[order]
    if sorted_keys.size > 1 and (sorted_keys[1:] == sorted_keys[:-1]).any():
        raise SchemaError("dimension key column contains duplicates")
    pos = np.searchsorted(sorted_keys, fact_keys)
    pos = np.clip(pos, 0, sorted_keys.size - 1)
    if sorted_keys.size == 0 or not np.array_equal(sorted_keys[pos], fact_keys):
        raise SchemaError("fact table references missing dimension keys")
    return order[pos]


def cached_key_positions(
    dim_key_column: Column, fact_key_column: Column
) -> np.ndarray:
    """Memoised :func:`_key_positions` for a (dimension key, FK) column pair.

    Kept on the fact key column, valid while the dimension key column is
    the same object: both are immutable snapshots, so the positions
    always describe the stored data.
    """
    return fact_key_column.derived(
        "join_positions",
        None,
        lambda: _key_positions(
            dim_key_column.numeric_values(), fact_key_column.numeric_values()
        ),
        also=(dim_key_column,),
    )


def gather_dimension_column(
    fact_key_column: Column,
    dim_key_column: Column,
    dim_column: Column,
    name: str,
) -> Column:
    """Dimension column ``name`` gathered to fact-row order, memoised.

    This is the per-column payload of the star join: with the join
    positions memoised the gather itself is one fancy-indexing pass, and
    the gathered column is kept on the fact key column too, so repeated
    queries touching the same dimension attribute pay nothing.
    """
    return fact_key_column.derived(
        "joined_column",
        name,
        lambda: dim_column.take(
            cached_key_positions(dim_key_column, fact_key_column)
        ),
        also=(dim_key_column, dim_column),
    )


class Database:
    """A catalog of tables with optional star-schema join metadata."""

    def __init__(
        self, tables: Iterable[Table], star_schema: StarSchema | None = None
    ) -> None:
        self._tables: dict[str, Table] = {}
        for table in tables:
            if table.name in self._tables:
                raise SchemaError(f"duplicate table name {table.name!r}")
            self._tables[table.name] = table
        self.star_schema = star_schema
        if star_schema is not None:
            self._validate_star_schema(star_schema)

    def _validate_star_schema(self, schema: StarSchema) -> None:
        fact = self.table(schema.fact_table)
        seen: dict[str, str] = {c: schema.fact_table for c in fact.column_names}
        for fk in schema.foreign_keys:
            dim = self.table(fk.dimension_table)
            fact.column(fk.fact_column)
            dim.column(fk.dimension_key)
            for c in dim.column_names:
                if c == fk.dimension_key:
                    continue
                if c in seen:
                    raise SchemaError(
                        f"column {c!r} appears in both {seen[c]!r} and "
                        f"{fk.dimension_table!r}; star schema columns must "
                        "be globally unique"
                    )
                seen[c] = fk.dimension_table

    # ------------------------------------------------------------------
    # Catalog access
    # ------------------------------------------------------------------
    @property
    def table_names(self) -> list[str]:
        """All table names in the catalog."""
        return list(self._tables)

    def table(self, name: str) -> Table:
        """Return the table named ``name``.

        Raises
        ------
        SchemaError
            If no such table exists.
        """
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(
                f"no table {name!r}; catalog has {self.table_names}"
            ) from None

    def has_table(self, name: str) -> bool:
        """Whether the catalog contains a table with this name."""
        return name in self._tables

    def snapshot(self) -> Database:
        """A catalog over the same tables, which later appends leave as is."""
        return Database(self._tables.values(), self.star_schema)

    def append_rows(self, name: str, batch: Table) -> Table:
        """Append ``batch``'s rows to table ``name`` (incremental-load path).

        The stored table is superseded by a new :class:`Table` whose
        columns hold the old rows followed by the batch — a tail write
        costing O(batch), see :meth:`Column.concat`; the old table stays
        a valid snapshot of the rows it had.  State derived from the old
        table (predicate masks, grouping codes, join positions) lives on
        its columns and dies with them; the new columns start with empty
        memos, filled on first read.  Returns the new table.
        """
        merged = self.table(name).concat(batch)
        self._tables[name] = merged
        return merged

    def total_bytes(self) -> int:
        """Approximate footprint of all catalog tables (space accounting)."""
        return sum(t.memory_bytes() for t in self._tables.values())

    # ------------------------------------------------------------------
    # Star schema helpers
    # ------------------------------------------------------------------
    @property
    def fact_table(self) -> Table:
        """The fact table (the lone table when there is no star schema)."""
        if self.star_schema is None:
            if len(self._tables) != 1:
                raise SchemaError(
                    "database has multiple tables but no star schema; "
                    "cannot identify the fact table"
                )
            return next(iter(self._tables.values()))
        return self.table(self.star_schema.fact_table)

    def column_owner(self, column: str) -> str:
        """Return the name of the table owning ``column``.

        Searches the fact table first, then each dimension table.
        """
        fact = self.fact_table
        if fact.has_column(column):
            return fact.name
        if self.star_schema is not None:
            for fk in self.star_schema.foreign_keys:
                if self.table(fk.dimension_table).has_column(column):
                    return fk.dimension_table
        raise SchemaError(f"no table owns column {column!r}")

    def view_column_names(self) -> list[str]:
        """The columns of :meth:`joined_view`, without materialising it."""
        names = self.fact_table.column_names
        if self.star_schema is not None:
            for fk in self.star_schema.foreign_keys:
                names += [
                    c
                    for c in self.table(fk.dimension_table).column_names
                    if c != fk.dimension_key
                ]
        return names

    def joined_view(self, name: str | None = None) -> Table:
        """Materialise the fact ⋈ dimensions wide view.

        The result contains every fact column plus every non-key dimension
        column, one row per fact row.  For a single-table database this is
        the fact table itself.
        """
        fact = self.fact_table
        if self.star_schema is None or not self.star_schema.foreign_keys:
            return fact if name is None else fact.rename(name)
        columns = {c: fact.column(c) for c in fact.column_names}
        for fk in self.star_schema.foreign_keys:
            dim = self.table(fk.dimension_table)
            fact_key_col = fact.column(fk.fact_column)
            dim_key_col = dim.column(fk.dimension_key)
            for c in dim.column_names:
                if c == fk.dimension_key:
                    continue
                columns[c] = gather_dimension_column(
                    fact_key_col, dim_key_col, dim.column(c), c
                )
        return Table(name or f"{fact.name}_joined", columns)
