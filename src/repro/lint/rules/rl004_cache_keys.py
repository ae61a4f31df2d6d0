"""RL004 — cache-key hygiene on :class:`ExecutionCache` lookups.

The execution cache validates entries by *object identity* through weak
references: a hit is only served while each anchor is the same live
object it was stored against.  Passing a freshly computed value —
``cache.get("k", (col.numeric_values(),))`` — defeats the design twice
over: the temporary's identity dies with the expression, so the entry
can never be validated against a later lookup (a 0% hit rate that looks
like a working cache), and with ``np.ndarray`` temporaries each miss
stores a new dead entry.  Anchors must be pre-bound names or attribute
references to objects that outlive the call.

Heuristics (documented limits): a receiver "looks like a cache" when
its name ends in ``cache`` (``cache``, ``self.cache``, ``_cache``) or
it is the result of ``get_cache()``.  The rule cannot see through a
name bound to a computed tuple one line earlier.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.lint.core import FileContext, Finding, Rule, dotted_name, register

LOOKUP_METHODS = frozenset({"get", "put", "get_or_compute"})
ANCHORS_POSITIONAL_INDEX = 1  # (kind, anchors, ...)


def _is_cache_receiver(node: ast.AST) -> bool:
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return name is not None and name.split(".")[-1] == "get_cache"
    name = dotted_name(node)
    return name is not None and name.split(".")[-1].lower().endswith("cache")


def _anchor_ok(node: ast.AST) -> bool:
    """Whether one anchor expression denotes a pre-bound object."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        return True
    if isinstance(node, ast.Subscript):
        return _anchor_ok(node.value)
    if isinstance(node, ast.Starred):
        return _anchor_ok(node.value)
    return False


@register
class CacheKeyHygiene(Rule):
    rule_id = "RL004"
    title = "computed expression used as an identity-cache anchor"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ctx.nodes(ast.Call):
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in LOOKUP_METHODS
                and _is_cache_receiver(func.value)
            ):
                continue
            anchors: ast.AST | None = None
            for keyword in node.keywords:
                if keyword.arg == "anchors":
                    anchors = keyword.value
            if anchors is None and len(node.args) > ANCHORS_POSITIONAL_INDEX:
                anchors = node.args[ANCHORS_POSITIONAL_INDEX]
            if anchors is None:
                continue
            elements = (
                anchors.elts
                if isinstance(anchors, (ast.Tuple, ast.List))
                else [anchors]
            )
            for element in elements:
                if _anchor_ok(element):
                    continue
                yield self.finding(
                    ctx,
                    element,
                    f"cache.{func.attr}() anchor is a computed "
                    "expression; identity-validated anchors must be "
                    "pre-bound names or attributes of objects that outlive "
                    "the call — a temporary can never validate a later hit",
                )
