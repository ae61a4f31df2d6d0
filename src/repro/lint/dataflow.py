"""Interprocedural passes over the project call graph.

Layer three of the whole-program analyzer.  Everything here is a
whole-program *property map* computed once per lint run and shared by
the graph-aware rules (RL011–RL013):

worker-context reachability
    A function "runs in worker context" if a submit edge reaches it —
    directly (it is a serving-layer request entry point) or transitively
    (a handler calls it).  Computed per backend tag, so findings can name
    the concurrency source that reaches a function.

lock-held regions and the lock-order graph
    Each ``with <lock>:`` statement opens a held region.  Locks get
    stable identities — ``ClassName._lock`` for instance locks,
    ``module._NAME`` for module-level locks — and kinds (``Lock`` /
    ``RLock``) recovered from their construction sites.  An edge
    ``A → B`` is recorded when ``B`` is acquired while ``A`` is held,
    including acquisitions buried arbitrarily deep in calls made inside
    the region.  Cycles in this graph (other than re-entrant RLock
    self-loops) are potential deadlocks: two threads entering the cycle
    from different points can block each other forever.

invalidation reachability
    ``invalidates(f)`` — f transitively reaches an invalidation call
    (``bump_plan_version``, ``invalidate_object`` …).  ``covered(f)``
    is the weaker caller-side property used by RL013: every call chain
    that can execute f's mutations passes through an invalidation,
    either below f (f itself invalidates) or above it (every caller is
    covered).  Computed as a greatest fixpoint so mutual recursion
    stays covered only when some chain actually reaches an
    invalidation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.callgraph import CallGraph, Edge
from repro.lint.project import FunctionInfo, ProjectIndex

#: Calls that (directly) invalidate derived state.
INVALIDATING_CALLS: frozenset[str] = frozenset(
    {
        "bump_plan_version",
        "_report",
        "invalidate_object",
        "invalidate_all",
    }
)


@dataclass(frozen=True)
class LockId:
    """Stable identity for a lock object."""

    name: str  # "ExecutionCache._lock", "repro.engine.parallel._OPTIONS_LOCK"
    kind: str  # "Lock" | "RLock" | "unknown"


@dataclass
class LockOrderEdge:
    """``inner`` acquired while ``outer`` is held."""

    outer: str
    inner: str
    path: str
    line: int
    via: str  # qualname of the function whose region creates the edge
    direct: bool  # False when the inner acquisition is inside a callee


@dataclass
class ProjectAnalysis:
    """Shared dataflow results, computed eagerly at construction."""

    project: ProjectIndex
    graph: CallGraph
    #: qualname -> backend tags (see ``Edge.backend``) it may run under
    worker_context: dict[str, set[str]] = field(default_factory=dict)
    #: lock name -> LockId (with kind)
    locks: dict[str, LockId] = field(default_factory=dict)
    #: qualname -> lock names directly acquired in its body
    acquires: dict[str, set[str]] = field(default_factory=dict)
    #: qualname -> lock names acquired transitively through calls
    acquires_closure: dict[str, set[str]] = field(default_factory=dict)
    lock_order: list[LockOrderEdge] = field(default_factory=list)
    #: qualnames that transitively reach an invalidation call
    invalidators: set[str] = field(default_factory=set)
    #: qualnames whose every executing chain passes an invalidation
    covered: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        self._compute_worker_context()
        self._collect_locks()
        self._compute_lock_regions()
        self._compute_invalidation()

    # ------------------------------------------------------------------
    # Worker-context reachability
    # ------------------------------------------------------------------
    def _compute_worker_context(self) -> None:
        pending: list[tuple[str, str]] = []
        for edge in self.graph.submit_edges():
            pending.append((edge.dst, edge.backend or "unknown"))
        while pending:
            qualname, backend = pending.pop()
            seen = self.worker_context.setdefault(qualname, set())
            if backend in seen:
                continue
            seen.add(backend)
            for edge in self.graph.callees(qualname):
                if edge.kind == "call":
                    pending.append((edge.dst, backend))

    def runs_in_worker(self, qualname: str) -> set[str]:
        return self.worker_context.get(qualname, set())

    def submit_chain(self, qualname: str, backend: str) -> list[Edge] | None:
        """A submit-rooted edge chain showing how ``qualname`` is reached."""
        # BFS backwards from qualname to a submit edge of this backend.
        frontier: list[tuple[str, list[Edge]]] = [(qualname, [])]
        visited = {qualname}
        while frontier:
            current, trail = frontier.pop(0)
            for edge in self.graph.callers(current):
                if edge.kind == "submit" and (edge.backend or "unknown") == backend:
                    return [edge, *trail]
                if edge.kind == "call" and edge.src not in visited:
                    visited.add(edge.src)
                    frontier.append((edge.src, [edge, *trail]))
        return None

    # ------------------------------------------------------------------
    # Locks
    # ------------------------------------------------------------------
    def _collect_locks(self) -> None:
        """Find lock constructions: ``self._x = RLock()`` / ``_X = Lock()``."""
        for cls in self.project.classes.values():
            for node in ast.walk(cls.node):
                if isinstance(node, ast.Assign):
                    kind = _lock_kind(node.value)
                    if kind is None:
                        continue
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            name = f"{cls.name}.{target.attr}"
                            self.locks[name] = LockId(name, kind)
                elif isinstance(node, ast.AnnAssign):
                    # Dataclass-style field:
                    #   _lock: threading.Lock = field(default_factory=...)
                    kind = _annotation_lock_kind(node)
                    if kind is None:
                        continue
                    target = node.target
                    if isinstance(target, ast.Name):
                        name = f"{cls.name}.{target.id}"
                    elif (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        name = f"{cls.name}.{target.attr}"
                    else:
                        continue
                    self.locks[name] = LockId(name, kind)
        for module, ctx in self.project.modules.items():
            for node in ctx.nodes(ast.Assign):
                if ctx.symbol_for(node) != "<module>":
                    continue
                kind = _lock_kind(node.value)
                if kind is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        name = f"{module}.{target.id}"
                        self.locks[name] = LockId(name, kind)

    def lock_kind(self, name: str) -> str:
        info = self.locks.get(name)
        return info.kind if info is not None else "unknown"

    def _lock_name(self, expr: ast.AST, info: FunctionInfo) -> str | None:
        """Stable lock identity for a ``with <expr>:`` context item."""
        # self._lock → ClassName._lock
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and info.class_qualname is not None
        ):
            cls_name = info.class_qualname.rsplit(".", 1)[-1]
            name = f"{cls_name}.{expr.attr}"
            if name in self.locks or "lock" in expr.attr.lower():
                return name
            return None
        # Bare module-level name: _OPTIONS_LOCK → module._OPTIONS_LOCK
        if isinstance(expr, ast.Name):
            candidate = f"{info.module}.{expr.id}"
            if candidate in self.locks:
                return candidate
            resolved = self.project.resolve_local(info.module, expr.id)
            if resolved is not None and resolved in self.locks:
                return resolved
            if "lock" in expr.id.lower():
                return candidate
            return None
        # other.attr style: typed receivers only
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            if "lock" not in expr.attr.lower():
                return None
            types = _receiver_types(self.project, info)
            cls = types.get(expr.value.id)
            if cls is not None:
                return f"{cls.rsplit('.', 1)[-1]}.{expr.attr}"
            return None
        return None

    def _compute_lock_regions(self) -> None:
        # Pass 1: direct acquisitions per function.
        regions: dict[str, list[tuple[str, ast.With, int]]] = {}
        for qualname in sorted(self.project.functions):
            info = self.project.functions[qualname]
            if isinstance(info.node, ast.Lambda):
                continue
            direct: set[str] = set()
            fn_regions: list[tuple[str, ast.With, int]] = []
            for node in ast.walk(info.node):
                if not isinstance(node, (ast.With, ast.AsyncWith)):
                    continue
                for item in node.items:
                    name = self._lock_name(item.context_expr, info)
                    if name is None:
                        continue
                    self.locks.setdefault(name, LockId(name, "unknown"))
                    direct.add(name)
                    fn_regions.append((name, node, node.lineno))
            self.acquires[qualname] = direct
            regions[qualname] = fn_regions

        # Pass 2: transitive closure over call edges (fixpoint).  Only
        # confident edges participate: a fallback edge from an untyped
        # receiver to a coincidentally same-named method would smuggle
        # phantom lock acquisitions into the region and fabricate
        # cycles RL012 then reports.
        closure = {qualname: set(locks) for qualname, locks in self.acquires.items()}
        changed = True
        while changed:
            changed = False
            for qualname in closure:
                for edge in self.graph.callees(qualname):
                    if edge.kind != "call" or edge.fallback:
                        continue
                    callee_locks = closure.get(edge.dst)
                    if callee_locks and not callee_locks <= closure[qualname]:
                        closure[qualname] |= callee_locks
                        changed = True
        self.acquires_closure = closure

        # Pass 3: held-region edges.
        for qualname in sorted(regions):
            info = self.project.functions[qualname]
            for outer, with_node, line in regions[qualname]:
                for node in ast.walk(with_node):
                    if node is with_node:
                        continue
                    if isinstance(node, (ast.With, ast.AsyncWith)):
                        for item in node.items:
                            inner = self._lock_name(item.context_expr, info)
                            if inner is not None:
                                self.lock_order.append(
                                    LockOrderEdge(
                                        outer,
                                        inner,
                                        info.path,
                                        node.lineno,
                                        qualname,
                                        direct=True,
                                    )
                                )
                    elif isinstance(node, ast.Call):
                        for target in self._call_targets(qualname, node):
                            for inner in sorted(closure.get(target, ())):
                                self.lock_order.append(
                                    LockOrderEdge(
                                        outer,
                                        inner,
                                        info.path,
                                        getattr(node, "lineno", line),
                                        qualname,
                                        direct=False,
                                    )
                                )

    def _call_targets(self, src: str, call: ast.Call) -> list[str]:
        line = getattr(call, "lineno", None)
        return sorted(
            {
                edge.dst
                for edge in self.graph.callees(src)
                if edge.kind == "call" and edge.line == line and not edge.fallback
            }
        )

    def lock_cycles(self) -> list[list[LockOrderEdge]]:
        """Cycles in the lock-order graph, re-entrant self-loops exempt."""
        adjacency: dict[str, dict[str, LockOrderEdge]] = {}
        for edge in self.lock_order:
            if edge.outer == edge.inner:
                if self.lock_kind(edge.outer) == "RLock":
                    continue  # re-entrant: same thread re-acquiring is fine
                adjacency.setdefault(edge.outer, {}).setdefault(edge.inner, edge)
                continue
            adjacency.setdefault(edge.outer, {}).setdefault(edge.inner, edge)

        cycles: list[list[LockOrderEdge]] = []
        seen_keys: set[tuple[str, ...]] = set()
        for start in sorted(adjacency):
            # DFS for a path back to `start`.
            stack: list[tuple[str, list[LockOrderEdge]]] = [(start, [])]
            visited: set[str] = set()
            while stack:
                current, trail = stack.pop()
                for nxt, edge in sorted(adjacency.get(current, {}).items()):
                    if nxt == start:
                        cycle = [*trail, edge]
                        key = tuple(sorted(e.outer for e in cycle))
                        if key not in seen_keys:
                            seen_keys.add(key)
                            cycles.append(cycle)
                    elif nxt not in visited:
                        visited.add(nxt)
                        stack.append((nxt, [*trail, edge]))
        return cycles

    # ------------------------------------------------------------------
    # Invalidation reachability
    # ------------------------------------------------------------------
    def _compute_invalidation(self) -> None:
        # Direct invalidators: functions whose body names an invalidating
        # call.  Same matching as RL001: the named entry points plus any
        # ``invalidate*`` method (``invalidate_table``, ``invalidate_plans``,
        # future additions).
        direct: set[str] = set()
        for qualname in self.project.functions:
            info = self.project.functions[qualname]
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    bare = _bare(node.func)
                    if bare is not None and (
                        bare in INVALIDATING_CALLS
                        or bare.startswith("invalidate")
                    ):
                        direct.add(qualname)
                        break

        # Least fixpoint: f invalidates if it calls an invalidator.
        self.invalidators = set(direct)
        changed = True
        while changed:
            changed = False
            for qualname in self.project.functions:
                if qualname in self.invalidators:
                    continue
                for edge in self.graph.callees(qualname):
                    if edge.kind == "call" and edge.dst in self.invalidators:
                        self.invalidators.add(qualname)
                        changed = True
                        break

        # Greatest fixpoint for caller-side coverage:
        #   covered(f) = invalidates(f)
        #             or (f has callers and every caller is covered)
        # Start optimistic (everything covered) and strike out functions
        # until stable, so cycles with no invalidating entry point fall out.
        covered = set(self.project.functions)
        changed = True
        while changed:
            changed = False
            for qualname in self.project.functions:
                if qualname not in covered or qualname in self.invalidators:
                    continue
                callers = [
                    e for e in self.graph.callers(qualname) if e.kind == "call"
                ]
                if not callers or any(e.src not in covered for e in callers):
                    covered.discard(qualname)
                    changed = True
        self.covered = covered


def _lock_kind(value: ast.AST) -> str | None:
    """``threading.RLock()`` → "RLock"; ``Lock()`` → "Lock"; else None."""
    if not isinstance(value, ast.Call):
        return None
    func = value.func
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    if name in {"Lock", "RLock"}:
        return name
    return None


def _annotation_lock_kind(node: ast.AnnAssign) -> str | None:
    """Lock kind of an annotated (dataclass-field) construction site.

    Prefers the ``field(default_factory=threading.RLock)`` factory over
    the annotation: the factory is what actually runs.
    """
    if isinstance(node.value, ast.Call):
        direct = _lock_kind(node.value)
        if direct is not None:
            return direct
        for kw in node.value.keywords:
            if kw.arg == "default_factory":
                name = _bare(kw.value)
                if name in {"Lock", "RLock"}:
                    return name
    ann_name = _bare(node.annotation)
    if ann_name in {"Lock", "RLock"}:
        return ann_name
    return None


def _receiver_types(project: ProjectIndex, info: FunctionInfo) -> dict[str, str]:
    """Minimal local var typing for lock receivers (mirrors callgraph)."""
    from repro.lint.callgraph import _local_types

    return _local_types(project, info)


def _bare(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


__all__ = [
    "INVALIDATING_CALLS",
    "LockId",
    "LockOrderEdge",
    "ProjectAnalysis",
]
