"""RL001 — mutation without cache/plan invalidation.

The cross-query :class:`~repro.engine.cache.ExecutionCache` and the
session plan memo are only safe because every code path that *replaces*
engine state — a table in a catalog, a sample table, a reduced
dimension — invalidates the derived artifacts or bumps ``plan_version``
in the same function.  A path that forgets does not crash: the cache
keeps serving artifacts of the replaced object and the answers are
silently wrong, the exact failure mode AQP literature warns about.
This rule makes the discipline structural: any function in the scope
below that assigns to one of the monitored state attributes must also
call an ``invalidate*`` / ``bump_plan_version`` / ``_report`` method
(``AQPTechnique._report`` performs the plan-version bump for every
``preprocess`` implementation) or appear in :data:`ALLOWLIST` with a
written justification.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.lint.core import FileContext, Finding, Rule, register

#: Files/directories whose functions carry the invalidation contract.
SCOPE_PREFIXES = ("repro/engine/", "repro/middleware/")
SCOPE_FILES = ("repro/core/smallgroup.py",)

#: Attributes holding state the execution cache derives artifacts from.
MUTATED_ATTRS = frozenset(
    {
        "tables",
        "_tables",
        "columns",
        "_columns",
        "_overall_parts",
        "_reduced_dims",
        "_metas",
        # Raw column/bitmask payloads: growing ``Column.data`` or
        # ``BitmaskVector.words`` in place changes every artifact derived
        # from the column (predicate masks, grouping codes, joined
        # columns) without changing the anchor identity, so the write
        # must come with an invalidation.
        "data",
        "words",
    }
)

#: Method names (besides ``invalidate*``) whose call counts as
#: discharging the contract.
INVALIDATING_CALLS = frozenset({"bump_plan_version", "_report"})

#: ``path::symbol`` entries reviewed as safe without an invalidation.
#: Every entry must say *why* the mutation cannot leave stale cache
#: entries behind; unexplained exemptions belong in the baseline file,
#: which is visible in review, not here.
ALLOWLIST: dict[str, str] = {
    # A brand-new table object (duplicate names are rejected) cannot have
    # cache entries: keys are object identities, not names.
    "repro/engine/database.py::Database.add_table": (
        "registers a new object; identity-keyed cache has no entries for it"
    ),
    # Column.concat's trusted constructor: the object is created by
    # Column.__new__ on the line above, so the identity-keyed caches
    # cannot hold entries for it yet.
    "repro/engine/column.py::column_from_parts": (
        "populates a brand-new Column object (Column.__new__ above); "
        "identity-keyed caches have no entries for it"
    ),
}


#: Payload attributes where only a plain *rebind* is monitored.  Element
#: writes into the arrays (``col.data[i] = v``, ``vector.words[...] |= m``)
#: are RL008's concern (writes into published arrays bypass the cache's
#: identity check); RL001 watches for the array being *replaced* — the
#: grow-by-reassignment idiom that leaves every identity-anchored entry
#: describing the old payload.
REBIND_ONLY_ATTRS = frozenset({"data", "words"})


def _attr_target(node: ast.AST) -> str | None:
    """The monitored attribute a store targets, unwrapping subscripts."""
    subscripted = False
    while isinstance(node, ast.Subscript):
        subscripted = True
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in MUTATED_ATTRS:
        if subscripted and node.attr in REBIND_ONLY_ATTRS:
            return None
        return node.attr
    return None


def _is_invalidating_call(node: ast.Call) -> bool:
    func = node.func
    name = None
    if isinstance(func, ast.Attribute):
        name = func.attr
    elif isinstance(func, ast.Name):
        name = func.id
    if name is None:
        return False
    return name.startswith("invalidate") or name in INVALIDATING_CALLS


def _is_version_bump(node: ast.AST) -> bool:
    """Direct ``self.plan_version += 1``-style bumps also discharge."""
    targets: list[ast.AST] = []
    if isinstance(node, ast.AugAssign):
        targets = [node.target]
    elif isinstance(node, ast.Assign):
        targets = list(node.targets)
    for target in targets:
        if isinstance(target, ast.Attribute) and target.attr in (
            "plan_version",
            "_plan_version",
        ):
            return True
    return False


@register
class MutationWithoutInvalidation(Rule):
    rule_id = "RL001"
    title = "state mutation without cache/plan invalidation"

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.path.startswith(SCOPE_PREFIXES) or ctx.path in SCOPE_FILES

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        # First mutation node per enclosing symbol (stable anchor), and
        # the set of symbols that discharge the contract somewhere in
        # their body.
        mutations: dict[str, tuple[ast.AST, str]] = {}
        discharged: set[str] = set()
        for node in ctx.nodes(
            ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Call
        ):
            symbol = ctx.symbol_for(node)
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                if _is_version_bump(node):
                    discharged.add(symbol)
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    attr = _attr_target(target)
                    if attr is not None:
                        mutations.setdefault(symbol, (node, attr))
            elif isinstance(node, ast.Call) and _is_invalidating_call(node):
                discharged.add(symbol)

        for symbol, (node, attr) in sorted(mutations.items()):
            if symbol.split(".")[-1] == "__init__":
                continue  # construction precedes any caching
            if symbol in discharged:
                continue
            if f"{ctx.path}::{symbol}" in ALLOWLIST:
                continue
            yield self.finding(
                ctx,
                node,
                f"assigns {attr!r} without calling an invalidate*/"
                "bump_plan_version/_report in the same function; cached "
                "artifacts derived from the replaced object would be "
                "served stale (invalidate, or allowlist with a reason)",
            )
