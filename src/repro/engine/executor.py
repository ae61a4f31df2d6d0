"""Vectorised query execution.

The executor answers aggregation queries (:class:`Query`) either *exactly*
against a :class:`Database` — resolving star-schema foreign-key joins for
whichever dimension columns the query touches — or against a single flat
(sample) table with optional per-row weights and a result scale factor,
which is how the AQP techniques evaluate their rewritten queries.

Grouping is filter-first and sort-free: the WHERE mask becomes a
selection index, each grouping column's cached dense codes (dictionary
codes for strings, a once-per-column ``numpy.unique`` for numerics) are
taken on the selected rows only, folded into a mixed-radix key (``int32``
for key spaces below ``2**31``) and densified by counting (a presence
array over the key space plus an ``int32`` look-up table);
aggregates are ``numpy.bincount`` sums over the same rows.  The cost of a
query is therefore proportional to the rows it *selects* — the cost model
the paper's speed-up experiments rely on — not to the size of the table
it selects them from.  Per-column codes, WHERE masks and star-join
positions are memoised on the columns they are derived from
(:meth:`~repro.engine.column.Column.derived`) and die with them;
nothing is kept per GROUP BY list, so memo size does not grow with the
number of distinct queries' column combinations, and the WHERE masks,
packed to one bit per row, share one byte budget.

Star joins are late-materialised (:func:`resolve_columns`): a dimension
attribute is never gathered to fact length.  Its predicates run on the
dimension table, and its codes and values are gathered through the join
positions for the selected rows only.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, ClassVar, TypeVar

import numpy as np

from repro.engine.column import Column, ColumnKind
from repro.engine.database import Database, cached_key_positions
from repro.engine.expressions import AggFunc, Query
from repro.engine.table import Table
from repro.errors import QueryError
from repro.obs.trace import NULL_SPAN, Span

GroupKey = tuple[Any, ...]

#: The dimension attributes a star query reads, by name:
#: ``(fact key column, join positions, dimension table)``, where
#: ``positions[i]`` is the dimension row of fact row ``i``
#: (see :func:`resolve_columns`).
Joins = Mapping[str, tuple[Column, np.ndarray, Table]]

# Mixed-radix group keys are int32 while the product of per-column
# cardinalities is below the first bound and int64 below the second;
# beyond it we group on the code matrix.
_NARROW_KEY_LIMIT = 2**31
_RADIX_LIMIT = 2**62


_Groups = TypeVar("_Groups", bound="GroupColumns")


@dataclass(eq=False)
class GroupColumns:
    """Groups held as columns: a key list and per-group arrays aligned with it.

    The layout shared by exact results and approximate answers.  The
    keys come in the grouping kernel's order (ascending codes; first
    seen across pieces for an approximate answer), or in the query's
    order once HAVING, ORDER BY and LIMIT have been applied.
    """

    group_columns: tuple[str, ...]
    aggregate_names: tuple[str, ...]
    keys: list[GroupKey]
    #: One ``float64`` array of per-group values per aggregate.
    values: tuple[np.ndarray, ...]

    #: The per-group fields :meth:`take` gathers: an array, or a tuple
    #: or dict of them.
    group_arrays: ClassVar[tuple[str, ...]] = ("values",)

    @property
    def n_groups(self) -> int:
        """Number of groups."""
        return len(self.keys)

    @cached_property
    def key_positions(self) -> dict[GroupKey, int]:
        """Group key → its position in :attr:`keys` (built on first use)."""
        return {key: i for i, key in enumerate(self.keys)}

    def _agg_index(self, aggregate: str | None) -> int:
        if aggregate is None:
            return 0
        if aggregate not in self.aggregate_names:
            raise QueryError(
                f"no aggregate {aggregate!r}; have {self.aggregate_names}"
            )
        return self.aggregate_names.index(aggregate)

    @property
    def rows(self) -> dict[GroupKey, tuple[float, ...]]:
        """Group key → aggregate value tuple (a view built on each read)."""
        return dict(zip(self.keys, zip(*(v.tolist() for v in self.values))))

    def as_dict(self, aggregate: str | None = None) -> dict[GroupKey, float]:
        """Mapping group → value for one aggregate (default: the first)."""
        idx = self._agg_index(aggregate)
        return dict(zip(self.keys, self.values[idx].tolist()))

    def clause_positions(self, query: Query, limit: int | None) -> list[int] | None:
        """Positions of the groups HAVING keeps, in ORDER BY order, first ``limit``.

        The one post-aggregation step, for exact and approximate answers
        alike; ``None`` when the query has no HAVING or ORDER BY and
        ``limit`` is ``None`` (every group, in order).
        """
        if not (query.having or query.order_by or limit is not None):
            return None
        positions = range(self.n_groups)
        if query.having:
            positions = np.flatnonzero(query.having_mask(self.values)).tolist()
        return self.order_limit_groups(positions, query.order_by, limit)

    def order_limit_groups(
        self,
        positions: Iterable[int],
        order_by: tuple[tuple[str, bool], ...],
        limit: int | None,
    ) -> list[int]:
        """``positions`` in ORDER BY order, trimmed to ``limit``.

        Each ORDER BY item names a grouping column or an aggregate output;
        descending items are applied via stable sorting from the last key
        to the first, so ties keep the order of ``positions``.
        """
        ordered = list(positions)
        for name, descending in reversed(order_by):
            if name in self.group_columns:
                column = self.group_columns.index(name)
                ordered.sort(key=lambda i: self.keys[i][column], reverse=descending)
            else:
                values = self.values[self.aggregate_names.index(name)].tolist()
                ordered.sort(key=values.__getitem__, reverse=descending)
        return ordered[:limit]

    def take(self: _Groups, positions: Sequence[int]) -> _Groups:
        """The groups at ``positions``, in that order (the one gather)."""
        index = np.asarray(positions, dtype=np.intp)

        def gather(value):
            if isinstance(value, dict):
                return {name: array[index] for name, array in value.items()}
            if isinstance(value, tuple):
                return tuple(array[index] for array in value)
            return value[index]

        return replace(
            self,
            keys=[self.keys[i] for i in positions],
            **{name: gather(getattr(self, name)) for name in self.group_arrays},
        )


@dataclass(eq=False)
class GroupedResult(GroupColumns):
    """Result of an aggregation query.

    Attributes (besides :class:`GroupColumns`' keys and values)
    ----------
    raw_counts:
        Unweighted number of source rows contributing to each group; used
        by the confidence-interval machinery.
    sum_squares:
        For each COUNT/SUM/AVG aggregate name (when variance statistics
        were collected), the per-group sum of squared values weighted by
        the variance weights, used for variance estimates.
    sum_cross:
        For each SUM/AVG aggregate name, per-group ``Σ vw_i · x_i`` — the
        covariance of the SUM and COUNT estimators under Poisson sampling,
        needed for AVG's ratio-estimator (delta method) variance.
    """

    raw_counts: np.ndarray
    sum_squares: dict[str, np.ndarray] = field(default_factory=dict)
    sum_cross: dict[str, np.ndarray] = field(default_factory=dict)

    group_arrays: ClassVar[tuple[str, ...]] = (
        "values", "raw_counts", "sum_squares", "sum_cross"
    )

    def groups(self) -> set[GroupKey]:
        """The set of group keys."""
        return set(self.keys)

    def value(self, group: GroupKey, aggregate: str) -> float:
        """Aggregate value for one group."""
        values = self.values[self._agg_index(aggregate)]
        return values[self.key_positions[group]].item()

    def total(self, aggregate: str | None = None) -> float:
        """Sum of one aggregate across all groups."""
        return float(sum(self.values[self._agg_index(aggregate)].tolist()))


def dense_ids(code_arrays: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """Combine parallel code arrays into dense joint group ids.

    Returns ``(ids, n_groups)`` where ``ids[i]`` is a dense id in
    ``[0, n_groups)`` identifying row ``i``'s combination of codes.
    Used for stratifications over many columns (congressional sampling
    groups on *all* candidate columns jointly) — arrays are combined
    pairwise with re-densification, so intermediate keys never overflow.
    """
    if not code_arrays:
        raise QueryError("dense_ids requires at least one code array")
    _, ids = np.unique(code_arrays[0], return_inverse=True)
    ids = ids.reshape(-1).astype(np.int64)
    if ids.size == 0:
        # Parallel arrays over zero rows: no groups, and no .max() calls
        # on empty arrays further down.
        return ids, 0
    n_groups = int(ids.max()) + 1
    for codes in code_arrays[1:]:
        _, next_ids = np.unique(codes, return_inverse=True)
        next_ids = next_ids.reshape(-1).astype(np.int64)
        if next_ids.size == 0:
            return np.zeros(0, dtype=np.int64), 0
        card = int(next_ids.max()) + 1
        combined = ids * card + next_ids
        _, ids = np.unique(combined, return_inverse=True)
        ids = ids.reshape(-1).astype(np.int64)
        n_groups = int(ids.max()) + 1
    return ids, n_groups


# Dictionary-code grouping is skipped for dictionaries grossly larger than
# the column (bincount width would dwarf the scan); this bound keeps the
# zero-count padding at worst a small constant factor of the row count.
_DICT_FAST_PATH_SLACK = 4
_DICT_FAST_PATH_FLOOR = 1024

# Selected rows are densified by counting (counts + look-up table, no
# sort) while the mixed-radix key space is at most this multiple of the
# selection size; sparser key spaces sort the selected keys instead, so
# the work stays proportional to the rows selected either way.
_DENSE_KEY_SLACK = 4
_DENSE_KEY_FLOOR = 1024


def _column_group_codes(col: Column) -> tuple[np.ndarray, list[Any]]:
    """Per-row dense codes plus decoded key values for one grouping column.

    String columns reuse the dictionary codes computed at construction —
    already dense in ``[0, len(dictionary))`` — so grouping skips the
    ``np.unique`` sort entirely and keeps no copy of the column (the
    kernel upcasts after taking the selected rows).  Other columns are
    densified once.  Either way the result is memoised on the column.
    The key list may contain values absent from the data (dictionary
    entries with zero rows); the kernel only decodes cells that hold
    rows.
    """
    return col.derived("column_codes", None, lambda: _dense_codes(col))


def _dense_codes(col: Column) -> tuple[np.ndarray, list[Any]]:
    if col.kind is ColumnKind.STRING and col.dictionary is not None and len(
        col.dictionary
    ) <= max(_DICT_FAST_PATH_FLOOR, _DICT_FAST_PATH_SLACK * len(col)):
        return col.data, list(col.dictionary)
    _, first_rows, inverse = np.unique(
        col.data, return_index=True, return_inverse=True
    )
    if first_rows.size <= np.iinfo(np.int32).max:
        inverse = inverse.astype(np.int32)
    return inverse.reshape(-1), [col[int(r)] for r in first_rows]


def _group_selected(
    sources: list[tuple[Column, np.ndarray | None]], n_selected: int
) -> tuple[np.ndarray, list[GroupKey], np.ndarray]:
    """Dense group ids of the selected rows, their groups' keys and sizes.

    Filter-first and sort-free: each grouping column's cached codes are
    taken on its selected rows only (``sources`` pairs a column with the
    rows to read, ``None`` for all of them in order) and folded into one
    mixed-radix key as they are taken, then densified by counting.  The
    key is ``int32`` whenever the key space is below ``2**31`` and is
    widened once into the ``intp`` ids, which numpy then counts and
    gathers by without a copy of its own; besides the ids, the scratch
    stays near 12 bytes per selected row.
    Returns ``(ids, keys, counts)`` with ``ids[i]`` in ``[0, len(keys))``
    for the ``i``-th selected row and ``counts[g]`` the selected rows of
    group ``g``; ``keys`` lists only groups that hold a selected row, in
    ascending mixed-radix order — the order ``np.unique`` would give.
    """
    if not sources:
        keys: list[GroupKey] = [()] if n_selected else []
        ids = np.zeros(n_selected, dtype=np.intp)
        return ids, keys, np.full(len(keys), n_selected)
    per_column = [_column_group_codes(column) for column, _ in sources]
    key_lists = [keys for _, keys in per_column]
    cards = [max(1, len(keys)) for keys in key_lists]
    product = math.prod(cards)
    if product >= _RADIX_LIMIT:
        digits, ids, counts = np.unique(
            np.stack(
                [
                    codes if rows is None else codes.take(rows)
                    for (codes, _), (_, rows) in zip(per_column, sources)
                ],
                axis=1,
            ),
            axis=0,
            return_inverse=True,
            return_counts=True,
        )
        keys = _decode_keys(key_lists, list(digits.T))
        return ids.reshape(-1), keys, counts
    dtype = np.int32 if product < _NARROW_KEY_LIMIT else np.int64
    (codes, _), (_, rows) = per_column[0], sources[0]
    key = codes if rows is None else codes.take(rows)
    if len(sources) > 1:
        # A copy only where the key would otherwise be the memo's codes.
        key = key.astype(dtype, copy=rows is None)
    for (codes, _), (_, rows), card in zip(
        per_column[1:], sources[1:], cards[1:]
    ):
        key *= card
        key += codes if rows is None else codes.take(rows)
    if product <= max(_DENSE_KEY_FLOOR, _DENSE_KEY_SLACK * n_selected):
        # The cells holding a row are marked, one byte per cell, and
        # numbered in order through an int32 lookup.
        index = key.astype(np.intp, copy=False)
        del key
        present = np.zeros(product, dtype=bool)
        present[index] = True
        cells = np.flatnonzero(present)
        del present
        if cells.size == product:
            ids = index
        else:
            lookup = np.empty(product, dtype=dtype)
            lookup[cells] = np.arange(cells.size, dtype=dtype)
            ids = lookup[index]
            del lookup, index
            ids = ids.astype(np.intp)
        counts = np.bincount(ids, minlength=cells.size)
    else:
        cells, ids, counts = np.unique(
            key, return_inverse=True, return_counts=True
        )
        ids = ids.reshape(-1)
    digits = []
    for card in reversed(cards[1:]):
        cells, digit = np.divmod(cells, card)
        digits.append(digit)
    digits.append(cells)
    return ids, _decode_keys(key_lists, digits[::-1]), counts


def _decode_keys(
    key_lists: list[list[Any]], digits: list[np.ndarray]
) -> list[GroupKey]:
    """Group key tuples from per-column code digits of the non-empty cells."""
    return list(
        zip(
            *(
                [keys[d] for d in digit.tolist()]
                for keys, digit in zip(key_lists, digits)
            )
        )
    )


def _evaluate_where(table: Table, predicate, joins: Joins) -> np.ndarray:
    """A predicate's mask over ``table``'s rows, star joins included.

    A predicate whose columns all sit in one table is evaluated there: on
    ``table`` for fact columns, on the dimension table for dimension
    attributes, whose (dimension-length) mask is then mapped to fact rows
    through the join positions.  A connective spanning several tables
    combines its operands' masks (:meth:`Predicate.combine`).
    """
    names = predicate.columns()
    if names.isdisjoint(joins):
        return predicate.evaluate(table)
    if names.issubset(joins):
        _, positions, dimension = joins[min(names)]
        if all(joins[name][2] is dimension for name in names):
            return predicate.evaluate(dimension).take(positions)
    return predicate.combine(
        lambda operand: _evaluate_where(table, operand, joins)
    )


def _predicate_mask(table: Table, predicate, joins: Joins) -> np.ndarray:
    """Evaluate a WHERE predicate, memoising the boolean mask packed.

    Only pure predicates (value-dependent only, per
    :meth:`~repro.engine.expressions.Predicate.cache_safe`) are memoised,
    one fact-length mask per predicate, packed to one bit per row
    (``np.packbits``, ``ceil(n / 8)`` bytes) and unpacked on a hit; all
    masks together stay within
    :data:`~repro.engine.cache.PREDICATE_MASK_BUDGET`.  A mask is kept
    on the first referenced fact column by name (or, for a predicate on
    dimension attributes only, on the first one's fact key column) and
    is valid while everything else it was computed from — the other fact
    columns, and each dimension attribute's column and join positions —
    is the same objects, so a stale mask can never be served for
    replaced data.  Predicates with unhashable literals are evaluated
    without a memo.
    """
    if not predicate.cache_safe():
        return _evaluate_where(table, predicate, joins)
    names = sorted(predicate.columns())
    if not names:
        return predicate.evaluate(table)
    try:
        hash(predicate)
    except TypeError:  # unhashable literal
        return _evaluate_where(table, predicate, joins)
    facts = [table.column(name) for name in names if name not in joins]
    dimension_inputs = [
        part
        for name in names
        if name in joins
        for part in (joins[name][1], joins[name][2].column(name))
    ]
    anchor = facts.pop(0) if facts else joins[names[0]][0]
    evaluated = None

    def packed() -> np.ndarray:
        nonlocal evaluated
        evaluated = _evaluate_where(table, predicate, joins)
        return np.packbits(evaluated)

    bits = anchor.derived(
        "predicate_mask",
        predicate,
        packed,
        also=(*facts, *dimension_inputs),
    )
    if evaluated is not None:
        return evaluated
    return np.unpackbits(bits, count=table.n_rows).view(bool)


def aggregate_table(
    table: Table,
    query: Query,
    weights: np.ndarray | None = None,
    scale: float = 1.0,
    collect_variance_stats: bool = False,
    variance_weights: np.ndarray | None = None,
    span: Span = NULL_SPAN,
    joins: Joins | None = None,
) -> GroupedResult:
    """Aggregate a flat table that already matches the query's FROM clause.

    Parameters
    ----------
    table:
        The (possibly sample) table to scan.
    query:
        Query whose WHERE / GROUP BY / aggregates to apply.  The query's
        ``table`` attribute is ignored here.
    weights:
        Optional per-row weights (inverse sampling rates).  ``None`` means
        weight 1 for every row.
    scale:
        Constant multiplier applied to COUNT and SUM results — the
        ``COUNT(*) * 100`` factor from the paper's rewritten queries.
    collect_variance_stats:
        When true, also collect per-group raw counts and sums of squares
        for variance/confidence-interval estimation.
    variance_weights:
        Per-row variance contribution ``vw_i``; the collected
        ``sum_squares`` are then ``Σ vw_i · x_i²`` per group (with
        ``x_i = 1`` for COUNT).  For a Bernoulli sample at rate ``p``
        estimated by scaling with ``1/p``, pass ``(1 - p)/p²`` for every
        row.  Defaults to ``(weight_i · scale)²``.
    span:
        Write-only profiling span (:data:`~repro.obs.trace.NULL_SPAN`
        when profiling is off); gains row/group counts for this scan.
    joins:
        The dimension attributes the query reads through star joins, as
        :func:`resolve_columns` returns them; every other column is
        ``table``'s.
    """
    if weights is not None and len(weights) != table.n_rows:
        raise QueryError(
            f"weights length {len(weights)} != table rows {table.n_rows}"
        )
    if variance_weights is not None and len(variance_weights) != table.n_rows:
        raise QueryError(
            f"variance_weights length {len(variance_weights)} != table rows "
            f"{table.n_rows}"
        )
    joins = joins or {}
    # WHERE is applied as a selection index: grouping codes and aggregated
    # values are taken on the selected rows only — never by materialising a
    # filtered copy of every column (the seed's ``table.take``).
    selection: np.ndarray | None = None
    if query.where is not None:
        selection = np.flatnonzero(_predicate_mask(table, query.where, joins))
        if weights is not None:
            weights = weights[selection]
        if variance_weights is not None:
            variance_weights = variance_weights[selection]
    n_selected = table.n_rows if selection is None else int(selection.size)
    # Dimension rows of the selected fact rows, one array per join.
    joined_rows: dict[int, np.ndarray] = {}

    def source(name: str) -> tuple[Column, np.ndarray | None]:
        """The stored column holding ``name`` and the rows of it to read."""
        if name not in joins:
            return table.column(name), selection
        _, positions, dimension = joins[name]
        rows = joined_rows.get(id(positions))
        if rows is None:
            rows = positions if selection is None else positions.take(selection)
            joined_rows[id(positions)] = rows
        return dimension.column(name), rows

    ids, keys, raw_counts = _group_selected(
        [source(name) for name in query.group_by], n_selected
    )
    n_groups = len(keys)
    if weights is None:
        weighted_counts = raw_counts.astype(np.float64)
    else:
        weighted_counts = np.bincount(ids, weights=weights, minlength=n_groups)

    if collect_variance_stats and variance_weights is None:
        # Default variance contribution: squared effective weight per row.
        if weights is None:
            variance_weights = np.full(n_selected, scale * scale)
        else:
            variance_weights = (weights * scale) ** 2

    def per_group(row_values: np.ndarray) -> np.ndarray:
        return np.bincount(ids, weights=row_values, minlength=n_groups)

    agg_values: list[np.ndarray] = []
    sum_squares: dict[str, np.ndarray] = {}
    sum_cross: dict[str, np.ndarray] = {}
    for agg in query.aggregates:
        if agg.func is AggFunc.COUNT:
            agg_values.append(weighted_counts * scale)
            if collect_variance_stats:
                # For COUNT the "values" are all 1, so the per-group sum of
                # squares is the sum of the variance weights.
                sum_squares[agg.name] = per_group(variance_weights)
            continue
        column, rows = source(agg.column)
        values = column.numeric_values()
        if rows is not None:
            values = values.take(rows)
        values = values.astype(np.float64, copy=False)
        if agg.func in (AggFunc.SUM, AggFunc.AVG):
            contrib = values if weights is None else values * weights
            sums = np.bincount(ids, weights=contrib, minlength=n_groups)
            if agg.func is AggFunc.SUM:
                agg_values.append(sums * scale)
            else:
                with np.errstate(invalid="ignore", divide="ignore"):
                    agg_values.append(
                        np.where(weighted_counts > 0, sums / weighted_counts, np.nan)
                    )
            if collect_variance_stats:
                squares = values * values
                squares *= variance_weights
                sum_squares[agg.name] = per_group(squares)
                del squares
                sum_cross[agg.name] = per_group(values * variance_weights)
        elif agg.func is AggFunc.MIN or agg.func is AggFunc.MAX:
            fill = np.inf if agg.func is AggFunc.MIN else -np.inf
            out = np.full(n_groups, fill, dtype=np.float64)
            if agg.func is AggFunc.MIN:
                np.minimum.at(out, ids, values)
            else:
                np.maximum.at(out, ids, values)
            agg_values.append(out)
        else:  # pragma: no cover - exhaustive over AggFunc
            raise QueryError(f"unsupported aggregate {agg.func}")

    # Every listed group holds a selected row, so nothing is filtered here.
    result = GroupedResult(
        group_columns=query.group_by,
        aggregate_names=tuple(a.name for a in query.aggregates),
        keys=keys,
        values=tuple(agg_values),
        raw_counts=raw_counts,
        sum_squares=sum_squares,
        sum_cross=sum_cross,
    )
    positions = result.clause_positions(query, query.limit)
    if positions is not None:
        result = result.take(positions)
    span.annotate(
        rows=table.n_rows,
        rows_selected=n_selected,
        groups=result.n_groups,
    )
    return result


def resolve_columns(
    db: Database,
    query: Query,
    span: Span = NULL_SPAN,
) -> tuple[Table, Joins]:
    """The fact columns a query reads, and the joins of the rest.

    Fact columns are used as stored.  A dimension attribute is joined,
    not gathered: it maps to ``(fact key column, positions, dimension
    table)``, where the positions (sorted search, memoised as ``int32``
    on the fact key column) give each fact row's dimension row, and
    only the dimensions the query needs are joined.
    :func:`aggregate_table` evaluates the attribute's predicates on the
    dimension table and gathers its codes and values for the selected
    rows only: late materialisation, so no fact-length copy of a
    dimension attribute is built or kept.
    """
    fact = db.fact_table
    needed = query.referenced_columns()
    columns = {}
    missing = set()
    for name in needed:
        if fact.has_column(name):
            columns[name] = fact.column(name)
        else:
            missing.add(name)
    joins: dict[str, tuple[Column, np.ndarray, Table]] = {}
    if missing:
        if db.star_schema is None:
            raise QueryError(
                f"columns {sorted(missing)} not found in table {fact.name!r}"
            )
        for fk in db.star_schema.foreign_keys:
            dim = db.table(fk.dimension_table)
            dim_needed = [c for c in missing if dim.has_column(c)]
            if not dim_needed:
                continue
            fact_key = fact.column(fk.fact_column)
            positions = cached_key_positions(
                dim.column(fk.dimension_key), fact_key
            )
            for c in dim_needed:
                joins[c] = (fact_key, positions, dim)
                missing.discard(c)
        if missing:
            raise QueryError(f"columns {sorted(missing)} not found in any table")
        span.add("dimension_columns", len(joins))
    if not columns:
        # COUNT(*) with no predicates or grouping still needs row extent.
        first = fact.column_names[0]
        columns[first] = fact.column(first)
    return Table(fact.name, columns), joins


def execute(
    db: Database,
    query: Query,
    span: Span = NULL_SPAN,
) -> GroupedResult:
    """Execute ``query`` exactly against the database."""
    if not db.has_table(query.table):
        raise QueryError(f"unknown table {query.table!r}")
    if db.star_schema is not None and query.table != db.star_schema.fact_table:
        raise QueryError(
            f"queries must target the fact table "
            f"{db.star_schema.fact_table!r}, got {query.table!r}"
        )
    resolve_span = span.child("resolve_columns")
    with resolve_span:
        facts, joins = resolve_columns(db, query, span=resolve_span)
    aggregate_span = span.child("aggregate")
    with aggregate_span:
        return aggregate_table(facts, query, span=aggregate_span, joins=joins)
