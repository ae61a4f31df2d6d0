"""RL011 — unlocked shared-state mutation reachable from a request handler.

The engine is serial; its only concurrency is the HTTP server's handler
threads (one per connection, see ``docs/internals.md`` §8).  Every
request entry point in ``repro/server/`` (``do_GET``/``do_POST``,
``handle``, ``_handle_*``) therefore shares the address space with every
other in-flight request, and so does everything it can *reach*: a
handler that calls a helper which calls another helper that appends to
a shared catalog list races exactly like a handler that appends to it
directly.

The call graph synthesizes one ``server-thread`` submit edge per request
entry point; the dataflow pass marks every function reachable from
those edges (via ``call`` edges) as "runs in worker context", and this
rule scans *those* bodies — the entry points included — for assignments
(plain, augmented, annotated, including subscript stores and tuple
unpacking) to the monitored shared-state attributes, and for mutating
method calls (``append``/``pop``/``update``/…) on them.  Each finding
names the chain that makes the function handler-reachable, because
"why does this run concurrently?" is the first question the report has
to answer.

Mutations lexically inside a ``with`` block whose context expression
names a lock (dotted name containing ``"lock"``, case-insensitive) are
exempt, as are ``__init__`` bodies (construction precedes publication)
and the reviewed :data:`ALLOWLIST`.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.lint.core import Finding, Rule, register

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

#: ``path::symbol`` entries reviewed as safe; reasons are mandatory.
ALLOWLIST: dict[str, str] = {
    # Builds a brand-new Column and fills .data/.dictionary before any
    # other code can see the object; same publication argument as the
    # __init__ exemption (and as RL008's entry for this function).
    "repro/engine/column.py::column_from_parts": (
        "mutates only the Column it just constructed, pre-publication"
    ),
    # The serving append path (the only server-thread chain that reaches
    # these) holds AQPServer's writer-preferring RW lock exclusively:
    # _handle_append wraps session.append_rows in write_locked(), so no
    # handler-thread query (they take the read side) and no concurrent
    # append can interleave with these catalog/sample mutations.
    "repro/engine/database.py::Database.append_rows": (
        "server-thread reachability only; serialized behind the "
        "serving layer's exclusive write lock (AQPServer._rw)"
    ),
    "repro/core/smallgroup.py::SmallGroupSampling.insert_rows": (
        "server-thread reachability only; serialized behind the "
        "serving layer's exclusive write lock (AQPServer._rw)"
    ),
    "repro/core/smallgroup.py::SmallGroupSampling._extend_reduced_dimensions": (
        "server-thread reachability only; serialized behind the "
        "serving layer's exclusive write lock (AQPServer._rw)"
    ),
}


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


def _shared_attr(node: ast.AST) -> str | None:
    """The first monitored attribute in ``node``'s attribute chain."""
    while isinstance(node, ast.Attribute):
        if node.attr in SHARED_STATE_ATTRS:
            return node.attr
        node = node.value
    return None


def _shared_target(node: ast.AST) -> str | None:
    """The shared attribute a store targets, or ``None``.

    Unwraps subscripts (``self._entries[key] = ...``) and reports the
    first monitored name found in the attribute chain.
    """
    while isinstance(node, ast.Subscript):
        node = node.value
    return _shared_attr(node)


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
    return _shared_attr(func.value)


@register
class TransitiveSharedStateMutation(Rule):
    rule_id = "RL011"
    title = "unlocked shared-state mutation reachable from a request handler"
    project_wide = True

    def check_project(self, project) -> Iterable[Finding]:
        analysis = project.analysis()
        for qualname in sorted(analysis.worker_context):
            info = project.functions.get(qualname)
            if info is None or isinstance(info.node, ast.Lambda):
                continue
            if info.name == "__init__":
                # Construction precedes publication: stores to the object
                # being built cannot race (the argument RL008 makes).
                continue
            if f"{info.path}::{info.symbol}" in ALLOWLIST:
                continue
            backends = analysis.worker_context[qualname]
            yield from self._scan(info, analysis, sorted(backends))

    def _scan(self, info, analysis, backends) -> Iterable[Finding]:
        chain = self._chain_text(info, analysis, backends)
        found: list[tuple[ast.AST, str]] = []

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
                found.append((node, target))
            for child in ast.iter_child_nodes(node):
                if not isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    scan(child, locked)

        for child in ast.iter_child_nodes(info.node):
            scan(child, False)

        seen: set[tuple[int, int]] = set()
        for node, target in found:
            key = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))
            if key in seen:
                continue
            seen.add(key)
            yield self.finding(
                info.ctx,
                node,
                f"mutates shared state {target!r} without holding a lock "
                f"in a function reachable from a request handler "
                f"({chain}); concurrent handler threads race on it — "
                "guard it with a lock or move it out of the request path",
            )

    @staticmethod
    def _chain_text(info, analysis, backends) -> str:
        backend = backends[0]
        chain = analysis.submit_chain(info.qualname, backend)
        if not chain:
            return f"{backend} backend"
        root = chain[0]
        hops = " -> ".join(
            edge.dst.rsplit(".", 1)[-1] for edge in chain
        )
        return (
            f"{backend} submit at {root.path}:{root.line}, via {hops}"
        )
