"""Property test: format(parse(format(ast))) is the identity on ASTs."""

from hypothesis import given, settings, strategies as st

from repro.engine.bitmask import Bitmask
from repro.engine.expressions import (
    AggFunc,
    AggregateSpec,
    Between,
    BitmaskDisjoint,
    Compare,
    CompareOp,
    Equals,
    InSet,
    Not,
    Or,
    Query,
    conjoin,
)
from repro.sql import format_query, parse
from repro.sql.parser import DEFAULT_BITMASK_BITS

IDENT = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: s.upper()
    not in {
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "AND", "OR", "AS", "IN",
        "NOT", "BETWEEN", "UNION", "ALL", "COUNT", "SUM", "AVG", "MIN", "MAX",
        "BITMASK",
    }
)

LITERAL = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.text(
        alphabet=st.characters(
            whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters=" '_-"
        ),
        max_size=12,
    ),
)


@st.composite
def predicates(draw, depth=0):
    choice = draw(st.integers(min_value=0, max_value=6 if depth < 2 else 3))
    column = draw(IDENT)
    if choice == 0:
        return Equals(column, draw(LITERAL))
    if choice == 1:
        values = draw(st.lists(LITERAL, min_size=1, max_size=4))
        return InSet(column, values)
    if choice == 2:
        low = draw(st.integers(min_value=-100, max_value=100))
        high = draw(st.integers(min_value=-100, max_value=100))
        return Between(column, low, high)
    if choice == 3:
        op = draw(st.sampled_from(list(CompareOp)))
        return Compare(column, op, draw(st.integers(-100, 100)))
    if choice == 4:
        return Not(draw(predicates(depth + 1)))
    if choice == 5:
        # min_size=2: a one-arm OR formats without the wrapper and would
        # (correctly) parse back as the bare arm.
        arms = draw(st.lists(predicates(depth + 1), min_size=2, max_size=3))
        return Or(arms)
    bits = draw(st.sets(st.integers(0, DEFAULT_BITMASK_BITS - 1), max_size=5))
    return BitmaskDisjoint(Bitmask(DEFAULT_BITMASK_BITS, bits))


@st.composite
def queries(draw):
    table = draw(IDENT)
    group_by = tuple(
        draw(st.lists(IDENT, max_size=3, unique=True))
    )
    aggs = [AggregateSpec(AggFunc.COUNT, alias=draw(IDENT))]
    if draw(st.booleans()):
        aggs.append(AggregateSpec(AggFunc.SUM, draw(IDENT), alias=draw(IDENT)))
    where = None
    if draw(st.booleans()):
        where = conjoin(draw(st.lists(predicates(), min_size=1, max_size=3)))
    return Query(table, tuple(aggs), group_by, where)


def normalise(predicate):
    """Fold EQ comparisons and flatten same-type AND nesting, as the parser
    does.  OR arms stay nested: the formatter parenthesizes compound
    operands, so ``(a OR b) OR c`` parses back with the inner OR intact."""
    if isinstance(predicate, Compare) and predicate.op is CompareOp.EQ:
        return Equals(predicate.column, predicate.value)
    if isinstance(predicate, Not):
        return Not(normalise(predicate.operand))
    if isinstance(predicate, Or):
        return Or([normalise(op) for op in predicate.operands])
    if hasattr(predicate, "operands"):
        flat = []
        for op in predicate.operands:
            n = normalise(op)
            if hasattr(n, "operands") and not isinstance(n, Or):
                flat.extend(n.operands)
            else:
                flat.append(n)
        return conjoin(flat)
    return predicate


@given(queries())
@settings(max_examples=120, deadline=None)
def test_query_roundtrips_through_sql(query):
    rendered = format_query(query)
    reparsed = parse(rendered).selects[0].query
    assert reparsed.table == query.table
    assert reparsed.group_by == query.group_by
    assert reparsed.aggregates == query.aggregates
    expected = normalise(query.where) if query.where is not None else None
    assert reparsed.where == expected
    # The session memoises plans keyed by the parsed query.
    assert isinstance(hash(reparsed), int)
