"""RL008 — in-place writes into published column/bitmask arrays.

The engine memoises state derived from a column's ``data`` array —
``predicate_mask``, ``column_codes``, ``join_positions`` and
``joined_column`` — on the column itself (:meth:`Column.derived
<repro.engine.column.Column.derived>`).  That is only sound because the
engine treats a published array as immutable: every state change
publishes a new column, whose memo starts empty.  The same discipline
holds for a bitmask vector's ``words``: a query that resolved a sample
table before an append keeps reading it as a snapshot.  A write *into*
a published array — ``col.data[i] = v``, ``vector.words[...] |= m``,
``vector.set_bit(...)`` — changes values under an unchanged column,
and its memoised mask or grouping code then silently describes the old
values: wrong answers, no crash.

This rule makes the immutability structural: any function in the scope
below that writes into a ``.data``/``.words`` array, rebinds one of
those attributes, or calls a mask-mutating method (``set_bit``/``set``)
must also call an ``invalidate*`` helper in the same function, be an
``__init__`` (construction precedes publication), or appear in
:data:`ALLOWLIST` with a written justification of why the mutated array
cannot have been published yet.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.lint.core import FileContext, Finding, Rule, register

#: Files/directories where published storage lives or is manipulated.
SCOPE_PREFIXES = ("repro/engine/", "repro/middleware/")
SCOPE_FILES = ("repro/core/smallgroup.py", "repro/core/combiner.py")

#: Attributes holding published arrays.
PUBLISHED_ATTRS = frozenset({"data", "words"})

#: Method calls that mutate mask storage in place.
MUTATING_MASK_METHODS = frozenset({"set_bit", "set"})

#: ``path::symbol`` entries reviewed as safe without an invalidation.
#: Every entry must say *why* the written array cannot have been
#: published (read by a query or anchoring a cache entry) at that point.
ALLOWLIST: dict[str, str] = {
    # Bitmask is a single query mask, never per-row table storage.
    "repro/engine/bitmask.py::Bitmask.set": (
        "query-mask primitive; a single Bitmask is never per-row table "
        "storage"
    ),
    "repro/engine/bitmask.py::Bitmask.from_int": (
        "fills a Bitmask it just constructed; nothing can reference it yet"
    ),
    # The one in-place vector primitive: callers own the discipline of
    # only invoking it on vectors that are not yet published (this rule
    # flags those call sites).
    "repro/engine/bitmask.py::BitmaskVector.set_bit": (
        "the construction-time primitive itself; call sites carry the "
        "pre-publication obligation and are flagged individually"
    ),
    "repro/engine/bitmask.py::BitmaskVector.row_mask": (
        "copies one row into a Bitmask it just constructed"
    ),
    # Sample-table construction: the vector is freshly allocated in the
    # same function and only attached to a table afterwards, so no query
    # can have seen it.
    "repro/core/smallgroup.py::SmallGroupSampling._pack_bits": (
        "fills a freshly built BitmaskVector before it is published on "
        "any sample table"
    ),
    # Column.concat's trusted constructor: sets attributes on a Column it
    # allocated via __new__ one line earlier; nothing can reference it.
    "repro/engine/column.py::column_from_parts": (
        "assembles a Column it just created with __new__; no cache entry "
        "can be anchored on an object that has never been visible"
    ),
    # ``flight.event.set()`` is a threading.Event wake-up, not a mask
    # write; SingleFlight holds no array storage at all.
    "repro/engine/cache.py::SingleFlight.do": (
        "calls threading.Event.set() to release coalesced waiters; no "
        "array storage is involved"
    ),
}


def _subscript_store_attr(node: ast.AST) -> str | None:
    """The published attribute a subscript store writes into, if any."""
    if not isinstance(node, ast.Subscript):
        return None
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in PUBLISHED_ATTRS:
        return node.attr
    return None


def _rebound_attr(node: ast.AST) -> str | None:
    """The published attribute a plain attribute store rebinds, if any."""
    if isinstance(node, ast.Attribute) and node.attr in PUBLISHED_ATTRS:
        return node.attr
    return None


def _is_invalidating_call(node: ast.Call) -> bool:
    func = node.func
    name = None
    if isinstance(func, ast.Attribute):
        name = func.attr
    elif isinstance(func, ast.Name):
        name = func.id
    return name is not None and name.startswith("invalidate")


def _mutating_method(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Attribute) and (
        node.func.attr in MUTATING_MASK_METHODS
    ):
        return node.func.attr
    return None


@register
class PublishedArrayMutation(Rule):
    rule_id = "RL008"
    title = "in-place write into a published column/bitmask array"

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.path.startswith(SCOPE_PREFIXES) or ctx.path in SCOPE_FILES

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        # First mutation per enclosing symbol (stable anchor), and the
        # symbols that call an invalidation helper somewhere in their
        # body.
        mutations: dict[str, tuple[ast.AST, str]] = {}
        discharged: set[str] = set()
        for node in ctx.nodes(
            ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Call
        ):
            symbol = ctx.symbol_for(node)
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    attr = _subscript_store_attr(target)
                    if attr is not None:
                        mutations.setdefault(
                            symbol, (node, f"writes into {attr!r}")
                        )
                        continue
                    attr = _rebound_attr(target)
                    if attr is not None:
                        mutations.setdefault(
                            symbol, (node, f"rebinds {attr!r}")
                        )
            elif isinstance(node, ast.Call):
                if _is_invalidating_call(node):
                    discharged.add(symbol)
                    continue
                method = _mutating_method(node)
                if method is not None:
                    mutations.setdefault(
                        symbol, (node, f"calls {method}() on mask storage")
                    )

        for symbol, (node, action) in sorted(mutations.items()):
            if symbol.split(".")[-1] == "__init__":
                continue  # construction precedes publication and caching
            if symbol in discharged:
                continue
            if f"{ctx.path}::{symbol}" in ALLOWLIST:
                continue
            yield self.finding(
                ctx,
                node,
                f"{action} without calling an invalidate* helper in the "
                "same function; cached masks and grouping codes derived "
                "from the mutated array would keep describing its old "
                "values (invalidate, or allowlist with a reason)",
            )
