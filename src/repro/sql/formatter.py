"""Render query ASTs back to SQL text, and rows as aligned text tables.

The middleware uses this to show users exactly what rewritten SQL runs
against the sample tables — the UNION ALL with bitmask filters and scaled
aggregates from the paper's Section 4.2.2 example.  ``parse(format(x))``
round-trips for every supported construct (a property test enforces it).
:func:`format_table` renders a result's rows for a terminal
(``SessionResult.to_text``, the CLI, the paper's figure reports).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.engine.expressions import (
    AggFunc,
    AggregateSpec,
    And,
    Between,
    BitmaskDisjoint,
    Compare,
    Equals,
    InSet,
    Not,
    Or,
    Predicate,
    Query,
)
from repro.errors import QueryError
from repro.sql.parser import BITMASK_COLUMN, SelectStatement, Statement


def format_literal(value: object) -> str:
    """Render a literal value as SQL."""
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float) and value.is_integer():
        return f"{value:.1f}"
    return repr(value)


def format_predicate(predicate: Predicate) -> str:
    """Render a predicate as SQL."""
    if isinstance(predicate, And):
        return " AND ".join(
            _format_operand(operand) for operand in predicate.operands
        )
    if isinstance(predicate, Or):
        return " OR ".join(
            _format_operand(operand) for operand in predicate.operands
        )
    if isinstance(predicate, Not):
        return f"NOT {_format_operand(predicate.operand)}"
    if isinstance(predicate, Equals):
        return f"{predicate.column} = {format_literal(predicate.value)}"
    if isinstance(predicate, Compare):
        return (
            f"{predicate.column} {predicate.op.value} "
            f"{format_literal(predicate.value)}"
        )
    if isinstance(predicate, InSet):
        values = ", ".join(format_literal(v) for v in predicate.values)
        return f"{predicate.column} IN ({values})"
    if isinstance(predicate, Between):
        return (
            f"{predicate.column} BETWEEN {format_literal(predicate.low)} "
            f"AND {format_literal(predicate.high)}"
        )
    if isinstance(predicate, BitmaskDisjoint):
        return f"{BITMASK_COLUMN} & {predicate.mask.to_int()} = 0"
    raise QueryError(f"cannot format predicate of type {type(predicate).__name__}")


def _format_operand(predicate: Predicate) -> str:
    text = format_predicate(predicate)
    # Parenthesize compound operands so precedence survives the round trip
    # (OR binds looser than AND in the parser).
    if isinstance(predicate, (And, Or)):
        return f"({text})"
    return text


def format_aggregate(agg: AggregateSpec, scale: float = 1.0) -> str:
    """Render one aggregate expression, with its scale factor and alias."""
    if agg.func is AggFunc.COUNT:
        body = "COUNT(*)"
    else:
        body = f"{agg.func.value}({agg.column})"
    if scale != 1.0:
        if scale == int(scale):
            body = f"{body} * {int(scale)}"
        else:
            body = f"{body} * {scale!r}"
    if agg.alias:
        body = f"{body} AS {agg.alias}"
    return body


def format_select(select: SelectStatement) -> str:
    """Render one SELECT block."""
    return format_query(select.query, scale=select.scale)


def format_query(query: Query, scale: float = 1.0) -> str:
    """Render an engine query (optionally with scaled aggregates) as SQL."""
    items = list(query.group_by)
    items.extend(format_aggregate(agg, scale) for agg in query.aggregates)
    parts = [f"SELECT {', '.join(items)}", f"FROM {query.table}"]
    if query.where is not None:
        parts.append(f"WHERE {format_predicate(query.where)}")
    if query.group_by:
        parts.append(f"GROUP BY {', '.join(query.group_by)}")
    if query.having:
        rendered = " AND ".join(
            f"{name} {op.value} {format_literal(value)}"
            for name, op, value in query.having
        )
        parts.append(f"HAVING {rendered}")
    if query.order_by:
        rendered = ", ".join(
            f"{name} DESC" if descending else name
            for name, descending in query.order_by
        )
        parts.append(f"ORDER BY {rendered}")
    if query.limit is not None:
        parts.append(f"LIMIT {query.limit}")
    return "\n".join(parts)


def format_statement(statement: Statement) -> str:
    """Render a statement, joining branches with UNION ALL."""
    return "\nUNION ALL\n".join(
        format_select(select) for select in statement.selects
    )


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render rows as an aligned text table."""
    rendered = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rendered:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)
