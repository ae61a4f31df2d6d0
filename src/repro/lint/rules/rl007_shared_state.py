"""RL007 — shared-state mutation in code that runs on the worker pool.

The parallel execution subsystem's determinism argument (see
``docs/internals.md`` §8) rests on pool tasks being *pure*: a function
scattered across worker threads may read tables and the thread-safe
execution cache, but must not mutate shared engine state — otherwise
answers depend on thread interleaving and the byte-identical-at-any-
worker-count guarantee silently breaks.  Inside
``repro/engine/parallel.py`` itself the module-level pool/option
globals may only be written while holding the module's locks.

This rule makes both disciplines structural.  Its scope is:

* **every** function in ``repro/engine/parallel.py`` (the pool module);
* any function a module *submits to the pool* — detected as the
  function argument of ``parallel_map(...)`` / ``map_row_chunks(...)``
  / ``pool.submit(...)`` calls (named functions, methods, or inline
  lambdas) — in the engine, middleware, and the small-group/combiner
  core modules.

Within that scope it flags assignments (plain, augmented, annotated,
including subscript stores and tuple unpacking) to the monitored
shared-state attributes/globals, and mutating method calls
(``append``/``pop``/``update``/…) on them, unless the statement sits
lexically inside a ``with`` block whose context expression names a
lock (dotted name containing ``"lock"``, case-insensitive).  Pool
tasks should not take engine locks at all — mutation belongs in the
serial head/tail around the scatter — but a lock-holding helper in
``parallel.py`` is exactly how the pool manages its own globals.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.lint.callgraph import is_server_handler
from repro.lint.core import FileContext, Finding, Rule, register

#: The pool modules: every function here is in scope.
POOL_MODULES = ("repro/engine/parallel.py",)

#: Files whose pool-submitted functions carry the purity contract.  The
#: serving package is in scope because its request entry points run on
#: HTTP handler threads (one per connection) — the same shared-address-
#: space races as pool tasks; those entry points are scanned as roots
#: directly (see ``is_server_handler``).
SCOPE_PREFIXES = ("repro/engine/", "repro/middleware/", "repro/server/")
SCOPE_FILES = (
    "repro/core/smallgroup.py",
    "repro/core/combiner.py",
)

#: Calls whose function argument runs on the worker pool.
SUBMIT_CALLS = frozenset(
    {
        "parallel_map",
        "map_row_chunks",
        "submit",
    }
)

#: Attributes holding shared engine state (cache structures, catalogs,
#: sample layouts, session memos, metrics counters, column storage).
SHARED_STATE_ATTRS = frozenset(
    {
        "_entries",
        "_anchor_keys",
        "_tables",
        "tables",
        "_columns",
        "columns",
        "_metas",
        "_overall_parts",
        "_reduced_dims",
        "data",
        "dictionary",
        "hits",
        "misses",
        "invalidations",
        "enabled",
        "metrics",
        "_parse_memo",
        "_plan_memo",
        "_log",
    }
)

#: Module-level globals of the pool modules themselves.
SHARED_GLOBALS = frozenset(
    {
        "_POOL",
        "_POOL_WORKERS",
        "_DEFAULT_OPTIONS",
    }
)

#: Method names that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "discard",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
    }
)


def _is_lock_context(item: ast.withitem) -> bool:
    """Whether a ``with`` item's context expression names a lock."""
    node = item.context_expr
    if isinstance(node, ast.Call):  # e.g. ``with lock_for(key):``
        node = node.func
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return any("lock" in part.lower() for part in parts)


def _shared_target(node: ast.AST) -> str | None:
    """The shared attribute/global a store targets, or ``None``.

    Unwraps subscripts (``self._entries[key] = ...``) and reports the
    first monitored name found in the attribute chain.
    """
    while isinstance(node, ast.Subscript):
        node = node.value
    probe = node
    while isinstance(probe, ast.Attribute):
        if probe.attr in SHARED_STATE_ATTRS:
            return probe.attr
        probe = probe.value
    if isinstance(node, ast.Name) and node.id in SHARED_GLOBALS:
        return node.id
    return None


def _store_targets(node: ast.AST) -> list[ast.AST]:
    """Flatten an assignment's targets, unpacking tuples/lists."""
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return []
    flat: list[ast.AST] = []
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets.extend(target.elts)
        else:
            flat.append(target)
    return flat


def _mutating_call_target(node: ast.Call) -> str | None:
    """The shared state a mutating method call touches, or ``None``."""
    func = node.func
    if not (
        isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS
    ):
        return None
    probe = func.value
    while isinstance(probe, ast.Attribute):
        if probe.attr in SHARED_STATE_ATTRS:
            return probe.attr
        probe = probe.value
    if isinstance(probe, ast.Name) and probe.id in SHARED_GLOBALS:
        return probe.id
    return None


def _submitted_functions(
    calls: Iterable[ast.AST],
) -> tuple[set[str], list[ast.Lambda]]:
    """Names (and inline lambdas) these call nodes submit to the pool.

    The function argument is the first positional argument of
    ``parallel_map``/``map_row_chunks`` and ``<pool>.submit`` calls.
    Callers pass ``ctx.nodes(ast.Call)`` (the shared index).
    """
    names: set[str] = set()
    lambdas: list[ast.Lambda] = []
    for node in calls:
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        call_name = (
            func.attr if isinstance(func, ast.Attribute) else
            func.id if isinstance(func, ast.Name) else None
        )
        if call_name not in SUBMIT_CALLS:
            continue
        submitted = node.args[0]
        if isinstance(submitted, ast.Name):
            names.add(submitted.id)
        elif isinstance(submitted, ast.Attribute):
            names.add(submitted.attr)
        elif isinstance(submitted, ast.Lambda):
            lambdas.append(submitted)
    return names, lambdas


@register
class SharedStateInPoolTask(Rule):
    rule_id = "RL007"
    title = "shared-state mutation in pool-submitted code"

    def applies_to(self, ctx: FileContext) -> bool:
        return (
            ctx.path in POOL_MODULES
            or ctx.path.startswith(SCOPE_PREFIXES)
            or ctx.path in SCOPE_FILES
        )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        names, lambdas = _submitted_functions(ctx.nodes(ast.Call))
        roots: list[ast.AST] = list(lambdas)
        for node in ctx.nodes(ast.FunctionDef, ast.AsyncFunctionDef):
            if (
                # ``__init__`` is exempt from the whole-module scan:
                # construction precedes publication, so nothing can race
                # the stores (the same argument RL008 encodes).
                (ctx.path in POOL_MODULES and node.name != "__init__")
                or node.name in names
                # Serving request entry points run on HTTP handler
                # threads — same purity contract as pool tasks.
                or is_server_handler(ctx.path, node.name)
            ):
                roots.append(node)

        findings: list[Finding] = []

        def scan(node: ast.AST, locked: bool) -> None:
            if isinstance(node, (ast.With, ast.AsyncWith)) and any(
                _is_lock_context(item) for item in node.items
            ):
                locked = True
            target: str | None = None
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                for stored in _store_targets(node):
                    target = target or _shared_target(stored)
            elif isinstance(node, ast.Call):
                target = _mutating_call_target(node)
            if target is not None and not locked:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"mutates shared state {target!r} in code that "
                        "runs on the worker pool without holding a lock; "
                        "pool tasks must be pure — move the mutation to "
                        "the serial head/tail around the scatter, or "
                        "guard it in a lock-holding helper",
                    )
                )
            for child in ast.iter_child_nodes(node):
                scan(child, locked)

        for root in roots:
            for child in ast.iter_child_nodes(root):
                scan(child, False)
        # One finding per (symbol, line): tuple targets can hit twice.
        seen: set[tuple[str, int, int]] = set()
        for finding in findings:
            key = (finding.symbol, finding.line, finding.col)
            if key not in seen:
                seen.add(key)
                yield finding
