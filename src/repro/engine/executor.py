"""Vectorised query execution.

The executor answers aggregation queries (:class:`Query`) either *exactly*
against a :class:`Database` — resolving star-schema foreign-key joins for
whichever dimension columns the query touches — or against a single flat
(sample) table with optional per-row weights and a result scale factor,
which is how the AQP techniques evaluate their rewritten queries.

Grouping is filter-first and sort-free: the WHERE mask becomes a
selection index, each grouping column's cached dense codes (dictionary
codes for strings, a once-per-column ``numpy.unique`` for numerics) are
taken on the selected rows only, folded into a mixed-radix key and
densified by counting (``numpy.bincount`` plus a look-up table);
aggregates are ``numpy.bincount`` sums over the same rows.  The cost of a
query is therefore proportional to the rows it *selects* — the cost model
the paper's speed-up experiments rely on — not to the size of the table
it selects them from.  Per-column codes, WHERE masks and star-join
positions are memoised in the cross-query
:class:`~repro.engine.cache.ExecutionCache`, keyed on column identity;
nothing is cached per GROUP BY list, so cache size does not grow with the
number of distinct queries' column combinations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.engine.cache import MISS, get_cache
from repro.engine.column import Column, ColumnKind
from repro.engine.database import Database, gather_dimension_column
from repro.engine.expressions import AggFunc, AggregateSpec, Query
from repro.engine.table import Table
from repro.errors import QueryError
from repro.obs.trace import NULL_SPAN, Span

GroupKey = tuple[Any, ...]

# Mixed-radix group keys stay in int64 while the product of per-column
# cardinalities is below this bound; beyond it we group on the code matrix.
_RADIX_LIMIT = 2**62


@dataclass
class GroupedResult:
    """Result of an aggregation query.

    Attributes
    ----------
    group_columns:
        Names of the grouping columns (empty for a plain aggregation, in
        which case there is a single group with key ``()``).
    aggregate_names:
        Output name of each aggregate, in SELECT order.
    rows:
        Mapping from group key tuple to aggregate value tuple.
    raw_counts:
        Unweighted number of source rows contributing to each group; used
        by the confidence-interval machinery.
    sum_squares:
        For each SUM/AVG aggregate name, per-group sum of squared values
        (weighted by the squared row weights), used for variance estimates.
    sum_cross:
        For each SUM/AVG aggregate name, per-group ``Σ vw_i · x_i`` — the
        covariance of the SUM and COUNT estimators under Poisson sampling,
        needed for AVG's ratio-estimator (delta method) variance.
    """

    group_columns: tuple[str, ...]
    aggregate_names: tuple[str, ...]
    rows: dict[GroupKey, tuple[float, ...]]
    raw_counts: dict[GroupKey, int] = field(default_factory=dict)
    sum_squares: dict[str, dict[GroupKey, float]] = field(default_factory=dict)
    sum_cross: dict[str, dict[GroupKey, float]] = field(default_factory=dict)

    @property
    def n_groups(self) -> int:
        """Number of groups in the result."""
        return len(self.rows)

    def groups(self) -> set[GroupKey]:
        """The set of group keys."""
        return set(self.rows)

    def value(self, group: GroupKey, aggregate: str) -> float:
        """Aggregate value for one group."""
        try:
            idx = self.aggregate_names.index(aggregate)
        except ValueError:
            raise QueryError(
                f"no aggregate {aggregate!r}; have {self.aggregate_names}"
            ) from None
        return self.rows[group][idx]

    def as_dict(self, aggregate: str | None = None) -> dict[GroupKey, float]:
        """Mapping group → value for one aggregate (default: the first)."""
        if aggregate is None:
            aggregate = self.aggregate_names[0]
        idx = self.aggregate_names.index(aggregate)
        return {g: vals[idx] for g, vals in self.rows.items()}

    def total(self, aggregate: str | None = None) -> float:
        """Sum of one aggregate across all groups."""
        return float(sum(self.as_dict(aggregate).values()))

    def to_table(self, name: str = "result") -> Table:
        """Materialise the result as an engine table.

        Group columns come first, then one column per aggregate, in result
        order — so exact answers can be stored, re-queried, or persisted
        like any other relation.
        """
        from repro.engine.column import Column

        if not self.rows:
            raise QueryError("cannot materialise an empty result")
        data: dict[str, list] = {}
        for i, column in enumerate(self.group_columns):
            data[column] = [g[i] for g in self.rows]
        for j, agg in enumerate(self.aggregate_names):
            data[agg] = [row[j] for row in self.rows.values()]
        return Table(
            name, {c: Column.from_values(v) for c, v in data.items()}
        )


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

# Selected rows are densified by counting (bincount + look-up table, no
# sort) while the mixed-radix key space is at most this multiple of the
# selection size; sparser key spaces sort the selected keys instead, so
# the work stays proportional to the rows selected either way.
_DENSE_KEY_SLACK = 4
_DENSE_KEY_FLOOR = 1024


def _column_group_codes(col: Column) -> tuple[np.ndarray, list[Any]]:
    """Per-row dense codes plus decoded key values for one grouping column.

    String columns reuse the dictionary codes computed at construction —
    already dense in ``[0, len(dictionary))`` — so grouping skips the
    ``np.unique`` sort entirely and caches no copy of the column (the
    kernel upcasts after taking the selected rows).  Other columns are
    densified once and memoised against the column's identity.  The key
    list may contain values absent from the data (dictionary entries with
    zero rows); the kernel only decodes cells that hold rows.
    """
    cache = get_cache()
    cached = cache.get("column_codes", (col,))
    if cached is not MISS:
        return cached
    if col.kind is ColumnKind.STRING and col.dictionary is not None and len(
        col.dictionary
    ) <= max(_DICT_FAST_PATH_FLOOR, _DICT_FAST_PATH_SLACK * len(col)):
        codes = col.data
        keys: list[Any] = list(col.dictionary)
    else:
        _, first_rows, inverse = np.unique(
            col.data, return_index=True, return_inverse=True
        )
        codes = inverse.reshape(-1)
        keys = [col[int(r)] for r in first_rows]
    cache.put("column_codes", (col,), (codes, keys))
    return codes, keys


def _group_selected(
    table: Table, group_by: tuple[str, ...], selection: np.ndarray | None
) -> tuple[np.ndarray, list[GroupKey], np.ndarray]:
    """Dense group ids of the selected rows, their groups' keys and sizes.

    Filter-first and sort-free: each grouping column's cached codes are
    taken on ``selection`` only (``None`` selects every row), folded into
    one mixed-radix key, and densified by counting.  Returns ``(ids,
    keys, counts)`` with ``ids[i]`` in ``[0, len(keys))`` for the
    ``i``-th selected row and ``counts[g]`` the selected rows of group
    ``g``; ``keys`` lists only groups that hold a selected row, in
    ascending mixed-radix order — the order ``np.unique`` would give.
    """
    n_selected = table.n_rows if selection is None else int(selection.size)
    if not group_by:
        keys: list[GroupKey] = [()] if n_selected else []
        ids = np.zeros(n_selected, dtype=np.intp)
        return ids, keys, np.full(len(keys), n_selected)
    per_column = [
        _column_group_codes(table.column(name)) for name in group_by
    ]
    key_lists = [keys for _, keys in per_column]
    cards = [max(1, len(keys)) for keys in key_lists]
    taken = [
        codes if selection is None else codes[selection]
        for codes, _ in per_column
    ]
    product = math.prod(cards)
    if product >= _RADIX_LIMIT:
        digits, ids, counts = np.unique(
            np.stack(taken, axis=1),
            axis=0,
            return_inverse=True,
            return_counts=True,
        )
        keys = _decode_keys(key_lists, list(digits.T))
        return ids.reshape(-1), keys, counts
    key = taken[0]
    if len(taken) > 1:
        key = key.astype(np.int64)
        for codes, card in zip(taken[1:], cards[1:]):
            key *= card
            key += codes
    if product <= max(_DENSE_KEY_FLOOR, _DENSE_KEY_SLACK * n_selected):
        counts = np.bincount(key, minlength=product)
        cells = np.flatnonzero(counts)
        if cells.size == product:
            ids = key
        else:
            counts = counts[cells]
            lookup = np.empty(product, dtype=np.intp)
            lookup[cells] = np.arange(cells.size)
            ids = lookup[key]
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


def _predicate_mask(table: Table, predicate) -> np.ndarray:
    """Evaluate a WHERE predicate, memoising the boolean mask.

    Only pure predicates (value-dependent only, per
    :meth:`~repro.engine.expressions.Predicate.cache_safe`) are cached,
    anchored on the referenced :class:`Column` objects so a stale mask can
    never be served for replaced data.  Predicates with unhashable
    literals simply skip the cache.
    """
    if not predicate.cache_safe():
        return predicate.evaluate(table)
    names = sorted(predicate.columns())
    if not names:
        return predicate.evaluate(table)
    anchors = [table.column(name) for name in names]
    cache = get_cache()
    try:
        mask = cache.get("predicate_mask", anchors, extra=predicate)
    except TypeError:  # unhashable literal
        return predicate.evaluate(table)
    if mask is MISS:
        mask = predicate.evaluate(table)
        cache.put("predicate_mask", anchors, mask, extra=predicate)
    return mask


def aggregate_table(
    table: Table,
    query: Query,
    weights: np.ndarray | None = None,
    scale: float = 1.0,
    collect_variance_stats: bool = False,
    variance_weights: np.ndarray | None = None,
    span: Span = NULL_SPAN,
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
    # WHERE is applied as a selection index: grouping codes and aggregated
    # values are taken on the selected rows only — never by materialising a
    # filtered copy of every column (the seed's ``table.take``).
    selection: np.ndarray | None = None
    if query.where is not None:
        keep = _predicate_mask(table, query.where)
        selection = np.flatnonzero(keep)
        if weights is not None:
            weights = weights[selection]
        if variance_weights is not None:
            variance_weights = variance_weights[selection]
    ids, keys, raw_counts = _group_selected(table, query.group_by, selection)
    n_selected = int(ids.size)
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

    def per_group(row_values: np.ndarray) -> dict[GroupKey, float]:
        sums = np.bincount(ids, weights=row_values, minlength=n_groups)
        return dict(zip(keys, sums.tolist()))

    agg_values: list[np.ndarray] = []
    sum_squares: dict[str, dict[GroupKey, float]] = {}
    sum_cross: dict[str, dict[GroupKey, float]] = {}
    for agg in query.aggregates:
        if agg.func is AggFunc.COUNT:
            agg_values.append(weighted_counts * scale)
            if collect_variance_stats:
                # For COUNT the "values" are all 1, so the per-group sum of
                # squares is the sum of the variance weights.
                sum_squares[agg.name] = per_group(variance_weights)
            continue
        values = table.column(agg.column).numeric_values()
        if selection is not None:
            values = values[selection]
        values = values.astype(np.float64)
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
                sum_squares[agg.name] = per_group(
                    values * values * variance_weights
                )
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
        rows=dict(zip(keys, zip(*(col.tolist() for col in agg_values)))),
        raw_counts=dict(zip(keys, raw_counts.tolist())),
        sum_squares=sum_squares,
        sum_cross=sum_cross,
    )
    if query.having:
        kept_groups = {
            g for g, row in result.rows.items() if query.evaluate_having(row)
        }
        result.rows = {g: result.rows[g] for g in result.rows if g in kept_groups}
        result.raw_counts = {
            g: c for g, c in result.raw_counts.items() if g in kept_groups
        }
        for name in list(result.sum_squares):
            result.sum_squares[name] = {
                g: v
                for g, v in result.sum_squares[name].items()
                if g in kept_groups
            }
        for name in list(result.sum_cross):
            result.sum_cross[name] = {
                g: v
                for g, v in result.sum_cross[name].items()
                if g in kept_groups
            }
    if query.order_by or query.limit is not None:
        _apply_order_limit(result, query)
    span.annotate(
        rows=table.n_rows,
        rows_selected=n_selected,
        groups=len(result.rows),
    )
    return result


def order_limit_groups(
    values: dict[GroupKey, tuple[float, ...]],
    group_columns: tuple[str, ...],
    aggregate_names: tuple[str, ...],
    order_by: tuple[tuple[str, bool], ...],
    limit: int | None,
) -> list[GroupKey]:
    """Group keys in query order, trimmed to ``limit``.

    Each ORDER BY item names a grouping column or an aggregate output;
    descending items are applied via stable sorting from the last key to
    the first.
    """
    keys = list(values)
    for name, descending in reversed(order_by):
        if name in group_columns:
            position = group_columns.index(name)
            keys.sort(key=lambda g: g[position], reverse=descending)
        else:
            position = aggregate_names.index(name)
            keys.sort(key=lambda g: values[g][position], reverse=descending)
    if limit is not None:
        keys = keys[:limit]
    return keys


def _apply_order_limit(result: GroupedResult, query: Query) -> None:
    """Reorder and trim a result in place per the query's ORDER BY/LIMIT."""
    kept = order_limit_groups(
        result.rows,
        query.group_by,
        result.aggregate_names,
        query.order_by,
        query.limit,
    )
    result.rows = {g: result.rows[g] for g in kept}
    result.raw_counts = {
        g: result.raw_counts[g] for g in kept if g in result.raw_counts
    }
    for name in list(result.sum_squares):
        per_group = result.sum_squares[name]
        result.sum_squares[name] = {
            g: per_group[g] for g in kept if g in per_group
        }
    for name in list(result.sum_cross):
        per_group = result.sum_cross[name]
        result.sum_cross[name] = {
            g: per_group[g] for g in kept if g in per_group
        }


def resolve_columns(
    db: Database,
    query: Query,
    span: Span = NULL_SPAN,
) -> Table:
    """Build a flat table containing every column the query references.

    Fact columns are used as stored; dimension columns are brought in by
    resolving the star schema's foreign-key joins (hash-free positional
    join via sorted search), touching only the dimensions actually
    needed.  Dimension columns are gathered in foreign-key order.
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
    if missing:
        if db.star_schema is None:
            raise QueryError(
                f"columns {sorted(missing)} not found in table {fact.name!r}"
            )
        gathers = 0
        for fk in db.star_schema.foreign_keys:
            dim = db.table(fk.dimension_table)
            dim_needed = [c for c in missing if dim.has_column(c)]
            if not dim_needed:
                continue
            fact_key_col = fact.column(fk.fact_column)
            dim_key_col = dim.column(fk.dimension_key)
            for c in dim_needed:
                columns[c] = gather_dimension_column(
                    fact_key_col, dim_key_col, dim.column(c)
                )
                missing.discard(c)
                gathers += 1
        if missing:
            raise QueryError(f"columns {sorted(missing)} not found in any table")
        span.add("dimension_gathers", gathers)
    if not columns:
        # COUNT(*) with no predicates or grouping still needs row extent.
        first = fact.column_names[0]
        columns[first] = fact.column(first)
    return Table(fact.name, columns)


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
        flat = resolve_columns(db, query, span=resolve_span)
    aggregate_span = span.child("aggregate")
    with aggregate_span:
        return aggregate_table(flat, query, span=aggregate_span)
