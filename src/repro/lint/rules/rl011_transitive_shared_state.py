"""RL011 — transitive shared-state mutation reachable from pool tasks.

RL007 checks the functions a module *directly* submits to the pool.
But the purity contract is about everything a pool task can *reach*: a
submitted chunk worker that calls a helper which calls another helper
that appends to a shared catalog list breaks determinism exactly the
same way, three frames deeper than RL007 can see.

This rule closes that gap with the call graph: the dataflow pass marks
every function reachable (via ``call`` edges) from any pool-submission
edge as "runs in worker context", and this rule scans *those* bodies
for the same shared-state mutations RL007 monitors.  Functions RL007
already covers — the directly submitted ones and everything in the
pool modules themselves — are skipped, so each mutation is reported by
exactly one rule.  Each finding names the submission chain that makes
the function worker-reachable, because "why is this a pool task?" is
the first question the report has to answer.

Mutations lexically inside a ``with <lock>:`` region are exempt, same
as RL007.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.lint.callgraph import is_server_handler
from repro.lint.core import Finding, Rule, register
from repro.lint.rules.rl007_shared_state import (
    POOL_MODULES,
    _is_lock_context,
    _mutating_call_target,
    _shared_target,
    _store_targets,
    _submitted_functions,
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
    # append can interleave with these catalog/sample mutations.  Real
    # pool scatters never reach them — appends are serial-head work.
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


@register
class TransitiveSharedStateMutation(Rule):
    rule_id = "RL011"
    title = "transitive shared-state mutation reachable from pool task"
    project_wide = True

    def check_project(self, project) -> Iterable[Finding]:
        analysis = project.analysis()
        for qualname in sorted(analysis.worker_context):
            info = project.functions.get(qualname)
            if info is None or isinstance(info.node, ast.Lambda):
                continue
            if info.path in POOL_MODULES:
                continue  # RL007 scans every function there already
            if info.name == "__init__":
                # Construction precedes publication: stores to the object
                # being built cannot race (the argument RL007/RL008 make).
                continue
            direct_names, _ = _submitted_functions(info.ctx.nodes(ast.Call))
            if info.name in direct_names:
                continue  # RL007 covers directly submitted functions
            if is_server_handler(info.path, info.name):
                continue  # RL007 scans serving entry points as roots
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
                f"mutates shared state {target!r} in a function reachable "
                f"from a pool submission ({chain}); concurrent tasks "
                "race on it — hoist the mutation to the serial "
                "head/tail around the scatter",
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
