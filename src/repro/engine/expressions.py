"""Query AST: predicates and aggregate specifications.

The engine and the AQP layers share this representation.  The SQL parser
produces it and the SQL formatter renders it back, so the same objects flow
from SQL text through rewriting to execution.

Predicates evaluate against a :class:`~repro.engine.table.Table` and return
a boolean numpy array.  String comparisons are evaluated on dictionary
codes, never on the decoded strings.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.engine.bitmask import Bitmask
from repro.engine.column import ColumnKind
from repro.engine.table import Table
from repro.errors import QueryError


class Predicate:
    """Base class for row predicates."""

    def evaluate(self, table: Table) -> np.ndarray:
        """Return a boolean mask of matching rows."""
        raise NotImplementedError

    def combine(
        self, mask_of: Callable[["Predicate"], np.ndarray]
    ) -> np.ndarray:
        """This predicate's mask from its operands' masks, ``mask_of(op)``.

        Only the connectives (:class:`And`, :class:`Or`, :class:`Not`)
        have operands; a star query evaluates each operand on the table
        that holds its columns and combines the masks here, with the same
        short-circuits as :meth:`evaluate`.
        """
        raise QueryError(
            f"{type(self).__name__} reads columns of several tables"
        )

    def evaluation_cost(self) -> int:
        """Relative cost rank used to order conjuncts cheapest-first.

        Column-local leaves (code/value comparisons) rank 0; predicates
        that read wider table state (the multi-word bitmask filter) rank
        higher, so :class:`And` evaluates the cheap, typically selective
        conjuncts first and can stop as soon as the running mask is
        empty.
        """
        return 1

    def columns(self) -> set[str]:
        """Names of the columns this predicate references."""
        raise NotImplementedError

    def cache_safe(self) -> bool:
        """Whether the mask depends only on the referenced columns' values.

        Pure predicates may be memoised against the identities of those
        columns (see the executor's predicate-mask cache).  Predicates that
        read other table state — the bitmask de-duplication filter — must
        return ``False``.
        """
        return True


@dataclass(frozen=True)
class Equals(Predicate):
    """``column = value``."""

    column: str
    value: Any

    def evaluate(self, table: Table) -> np.ndarray:
        col = table.column(self.column)
        encoded = col.encode_value(self.value)
        return col.data == encoded

    def evaluation_cost(self) -> int:
        return 0

    def columns(self) -> set[str]:
        return {self.column}


@dataclass(frozen=True)
class InSet(Predicate):
    """``column IN (v1, v2, ...)`` — the paper's workload predicates."""

    column: str
    values: tuple[Any, ...]

    def __init__(self, column: str, values: Sequence[Any]) -> None:
        object.__setattr__(self, "column", column)
        object.__setattr__(self, "values", tuple(values))

    def evaluate(self, table: Table) -> np.ndarray:
        col = table.column(self.column)
        if col.kind is ColumnKind.STRING:
            # Translate the literal list to code space once, then answer
            # with a boolean lookup over the (small) dictionary — no
            # np.isin sort over the per-row data.
            lut = np.zeros(len(col.require_dictionary()), dtype=bool)
            any_present = False
            for v in self.values:
                code = col.encode_value(v)
                if code >= 0:
                    lut[code] = True
                    any_present = True
            if not any_present:
                return np.zeros(len(col.data), dtype=bool)
            return lut[col.data]
        encoded = [col.encode_value(v) for v in self.values]
        if not encoded:
            return np.zeros(len(col.data), dtype=bool)
        targets = np.asarray(sorted(encoded), dtype=col.data.dtype)
        return np.isin(col.data, targets)

    def evaluation_cost(self) -> int:
        return 0

    def columns(self) -> set[str]:
        return {self.column}


class CompareOp(enum.Enum):
    """Comparison operators for :class:`Compare`."""

    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    NE = "<>"
    EQ = "="


_COMPARE_FUNCS = {
    CompareOp.LT: np.less,
    CompareOp.LE: np.less_equal,
    CompareOp.GT: np.greater,
    CompareOp.GE: np.greater_equal,
    CompareOp.NE: np.not_equal,
    CompareOp.EQ: np.equal,
}


@dataclass(frozen=True)
class Compare(Predicate):
    """``column <op> value`` for numeric columns (``=``/``<>`` for any)."""

    column: str
    op: CompareOp
    value: Any

    def _encode(self, col) -> float | int:
        if col.kind is ColumnKind.STRING and self.op not in (
            CompareOp.EQ,
            CompareOp.NE,
        ):
            raise QueryError(
                f"ordering comparison {self.op.value} not supported on "
                f"string column {self.column!r}"
            )
        return col.encode_value(self.value)

    def evaluate(self, table: Table) -> np.ndarray:
        col = table.column(self.column)
        return _COMPARE_FUNCS[self.op](col.data, self._encode(col))

    def evaluation_cost(self) -> int:
        return 0

    def columns(self) -> set[str]:
        return {self.column}


@dataclass(frozen=True)
class Between(Predicate):
    """``column BETWEEN lo AND hi`` (inclusive both ends)."""

    column: str
    low: Any
    high: Any

    def _require_numeric(self, col) -> None:
        if col.kind is ColumnKind.STRING:
            raise QueryError(
                f"BETWEEN not supported on string column {self.column!r}"
            )

    def evaluate(self, table: Table) -> np.ndarray:
        col = table.column(self.column)
        self._require_numeric(col)
        return (col.data >= self.low) & (col.data <= self.high)

    def evaluation_cost(self) -> int:
        return 0

    def columns(self) -> set[str]:
        return {self.column}


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of predicates."""

    operands: tuple[Predicate, ...]

    def __init__(self, operands: Sequence[Predicate]) -> None:
        if not operands:
            raise QueryError("AND requires at least one operand")
        object.__setattr__(self, "operands", tuple(operands))

    def ordered_operands(self) -> tuple[Predicate, ...]:
        """Operands sorted cheapest-first (stable within equal cost).

        Column-local leaves run before wider-state predicates like
        :class:`BitmaskDisjoint`; AND of booleans is commutative, so the
        mask is identical in any order.
        """
        return tuple(
            sorted(self.operands, key=lambda p: p.evaluation_cost())
        )

    def evaluate(self, table: Table) -> np.ndarray:
        return self.combine(lambda operand: operand.evaluate(table))

    def combine(
        self, mask_of: Callable[[Predicate], np.ndarray]
    ) -> np.ndarray:
        # Short-circuit: once the running mask is all-false no further
        # conjunct can set a bit, so later operands are *not evaluated at
        # all* — including operands whose evaluation would raise (e.g. a
        # bitmask filter against a bitmask-less table).  Pinned by test.
        ordered = self.ordered_operands()
        mask = mask_of(ordered[0])
        for operand in ordered[1:]:
            if not mask.any():
                break
            mask = mask & mask_of(operand)
        return mask

    def evaluation_cost(self) -> int:
        return max(op.evaluation_cost() for op in self.operands)

    def columns(self) -> set[str]:
        out: set[str] = set()
        for operand in self.operands:
            out |= operand.columns()
        return out

    def cache_safe(self) -> bool:
        return all(operand.cache_safe() for operand in self.operands)


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of predicates.

    The symmetric twin of :class:`And`: where AND short-circuits once the
    running mask is all-false, OR short-circuits once it is all-*true* —
    no further arm can clear a bit.
    """

    operands: tuple[Predicate, ...]

    def __init__(self, operands: Sequence[Predicate]) -> None:
        if not operands:
            raise QueryError("OR requires at least one operand")
        object.__setattr__(self, "operands", tuple(operands))

    def ordered_operands(self) -> tuple[Predicate, ...]:
        """Arms sorted cheapest-first (stable within equal cost).

        Mirrors :meth:`And.ordered_operands`; OR of booleans is
        commutative, so the mask is identical in any order.
        """
        return tuple(
            sorted(self.operands, key=lambda p: p.evaluation_cost())
        )

    def evaluate(self, table: Table) -> np.ndarray:
        return self.combine(lambda operand: operand.evaluate(table))

    def combine(
        self, mask_of: Callable[[Predicate], np.ndarray]
    ) -> np.ndarray:
        # Short-circuit: once the running mask is all-true no further arm
        # can clear a bit, so later arms are not evaluated at all.
        ordered = self.ordered_operands()
        mask = mask_of(ordered[0])
        for operand in ordered[1:]:
            if mask.all():
                break
            mask = mask | mask_of(operand)
        return mask

    def evaluation_cost(self) -> int:
        return max(op.evaluation_cost() for op in self.operands)

    def columns(self) -> set[str]:
        out: set[str] = set()
        for operand in self.operands:
            out |= operand.columns()
        return out

    def cache_safe(self) -> bool:
        return all(operand.cache_safe() for operand in self.operands)


@dataclass(frozen=True)
class Not(Predicate):
    """Negation of a predicate."""

    operand: Predicate

    def evaluate(self, table: Table) -> np.ndarray:
        return self.combine(lambda operand: operand.evaluate(table))

    def combine(
        self, mask_of: Callable[[Predicate], np.ndarray]
    ) -> np.ndarray:
        return ~mask_of(self.operand)

    def evaluation_cost(self) -> int:
        return self.operand.evaluation_cost()

    def columns(self) -> set[str]:
        return self.operand.columns()

    def cache_safe(self) -> bool:
        return self.operand.cache_safe()


@dataclass(frozen=True)
class BitmaskDisjoint(Predicate):
    """``bitmask & m = 0`` — the small group sampling de-duplication filter.

    Evaluates against the table's attached :class:`BitmaskVector`.  Tables
    without a bitmask treat every row as matching when the mask is zero and
    raise otherwise.
    """

    mask: Bitmask

    def evaluate(self, table: Table) -> np.ndarray:
        if table.bitmask is None:
            if self.mask.is_zero():
                return np.ones(table.n_rows, dtype=bool)
            raise QueryError(
                f"table {table.name!r} has no bitmask column but the query "
                "filters on one"
            )
        return table.bitmask.isdisjoint(self.mask)

    def evaluation_cost(self) -> int:
        # Touches every word of the multi-word per-row bitmask — costlier
        # than a column-local code comparison, so And runs it last.
        return 2

    def columns(self) -> set[str]:
        return set()

    def cache_safe(self) -> bool:
        # Depends on the table's bitmask, not on any data column.
        return False


def conjoin(predicates: Sequence[Predicate]) -> Predicate | None:
    """Combine predicates into one conjunction (``None`` for empty input)."""
    predicates = [p for p in predicates if p is not None]
    if not predicates:
        return None
    if len(predicates) == 1:
        return predicates[0]
    return And(predicates)


class AggFunc(enum.Enum):
    """Supported aggregate functions."""

    COUNT = "COUNT"
    SUM = "SUM"
    AVG = "AVG"
    MIN = "MIN"
    MAX = "MAX"


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate expression in a query's SELECT list.

    ``COUNT`` takes no column (``COUNT(*)``); every other function requires
    a numeric column.
    """

    func: AggFunc
    column: str | None = None
    alias: str | None = None

    def __post_init__(self) -> None:
        if self.func is AggFunc.COUNT:
            if self.column is not None:
                raise QueryError("only COUNT(*) is supported, not COUNT(col)")
        elif self.column is None:
            raise QueryError(f"{self.func.value} requires a column")

    @property
    def name(self) -> str:
        """Output column name for this aggregate."""
        if self.alias:
            return self.alias
        if self.func is AggFunc.COUNT:
            return "count"
        return f"{self.func.value.lower()}_{self.column}"

    def describe(self) -> str:
        """SQL-ish rendering, e.g. ``SUM(revenue)``."""
        target = "*" if self.column is None else self.column
        return f"{self.func.value}({target})"


@dataclass(frozen=True)
class Query:
    """An aggregation query with optional grouping and selection.

    Attributes
    ----------
    table:
        Target table name.  For star-schema databases this is the fact
        table; dimension columns may be referenced freely (the executor
        resolves the foreign-key joins).
    aggregates:
        The aggregate expressions to compute.
    group_by:
        Grouping columns (empty tuple for a plain aggregation).
    where:
        Optional selection predicate.
    having:
        Post-aggregation filters as ``(aggregate_name, op, value)``
        triples, conjoined.  Applied to the (estimated) aggregate values
        after grouping — and, for approximate answers, after stratum
        combination.
    order_by:
        Result ordering as ``(name, descending)`` pairs, where ``name``
        is a grouping column or an aggregate's output name.  Supports the
        classic top-k analysis query ("top-selling products").
    limit:
        Keep only the first ``limit`` result groups (after ordering).
    """

    table: str
    aggregates: tuple[AggregateSpec, ...]
    group_by: tuple[str, ...] = field(default_factory=tuple)
    where: Predicate | None = None
    order_by: tuple[tuple[str, bool], ...] = field(default_factory=tuple)
    limit: int | None = None
    having: tuple[tuple[str, "CompareOp", float], ...] = field(
        default_factory=tuple
    )

    def __post_init__(self) -> None:
        if not self.aggregates:
            raise QueryError("a query must compute at least one aggregate")
        if len(set(self.group_by)) != len(self.group_by):
            raise QueryError("duplicate grouping column")
        valid_names = set(self.group_by) | {a.name for a in self.aggregates}
        for name, _ in self.order_by:
            if name not in valid_names:
                raise QueryError(
                    f"ORDER BY {name!r} is neither a grouping column nor "
                    f"an aggregate name; have {sorted(valid_names)}"
                )
        aggregate_names = {a.name for a in self.aggregates}
        for name, op, _ in self.having:
            if name not in aggregate_names:
                raise QueryError(
                    f"HAVING {name!r} is not an aggregate name; "
                    f"have {sorted(aggregate_names)}"
                )
            if not isinstance(op, CompareOp):
                raise QueryError("HAVING operator must be a CompareOp")
        if self.limit is not None and self.limit < 1:
            raise QueryError(f"LIMIT must be >= 1, got {self.limit}")

    def referenced_columns(self) -> set[str]:
        """All data columns the query touches."""
        out = set(self.group_by)
        for agg in self.aggregates:
            if agg.column is not None:
                out.add(agg.column)
        if self.where is not None:
            out |= self.where.columns()
        return out

    def with_table(self, table: str) -> "Query":
        """Return the same query re-targeted at another table."""
        return Query(
            table,
            self.aggregates,
            self.group_by,
            self.where,
            self.order_by,
            self.limit,
            self.having,
        )

    def with_where(self, where: Predicate | None) -> "Query":
        """Return the same query with a different WHERE predicate."""
        return Query(
            self.table,
            self.aggregates,
            self.group_by,
            where,
            self.order_by,
            self.limit,
            self.having,
        )

    def having_mask(self, values: Sequence[np.ndarray]) -> np.ndarray:
        """Which groups pass the HAVING clauses.

        ``values`` holds one per-group array per aggregate, in SELECT
        order; the mask is aligned with them.
        """
        names = [a.name for a in self.aggregates]
        keep = np.ones(len(values[0]), dtype=bool)
        for name, op, threshold in self.having:
            keep &= _COMPARE_FUNCS[op](values[names.index(name)], threshold)
        return keep

    def and_where(self, extra: Predicate | None) -> "Query":
        """Return the query with ``extra`` conjoined onto its predicate."""
        if extra is None:
            return self
        combined = conjoin([p for p in (self.where, extra) if p is not None])
        return self.with_where(combined)
