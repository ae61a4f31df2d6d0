"""Conservative call graph with server-thread submission edges.

Layer two of the whole-program analyzer (see :mod:`repro.lint.project`).
The graph has one node per :class:`~repro.lint.project.FunctionInfo`
qualname plus synthetic ``<module>`` nodes, and two edge kinds:

``call``
    ``f`` may invoke ``g`` directly.  Resolution is *conservative but
    precise where it matters*: names resolve through the per-module
    import table, ``self.method(...)`` through the class method table
    (inheritance included), and receiver variables through lightweight
    local type inference (parameter annotations, ``x = Class()``
    constructor stores, and known singleton factories such as
    ``get_cache()``).  The by-name fallback — linking a bare method
    call to every same-named function in the project — is suppressed
    for names that collide with builtin container/str methods
    (``get``, ``update``, ``append``, ...), where it would drown the
    graph in false edges; the type-inference paths above keep the
    interesting receivers (cache, registry) resolved anyway.

``submit``
    ``g`` is a serving-layer request entry point (see
    :func:`is_server_handler`): ``ThreadingHTTPServer`` runs it on a
    handler thread, one per connection.  The engine itself is serial, so
    these synthesized edges from the module node are the only concurrency
    roots.  Each carries the backend tag ``server-thread`` so reports can
    name the concurrency source that reaches a function.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.project import FunctionInfo, ProjectIndex

#: The serving package: its request entry points run on HTTP handler
#: threads (``ThreadingHTTPServer`` spawns one per connection), so they
#: are worker context.
SERVER_PATH_PREFIX = "repro/server/"

#: Backend tag of the synthesized handler-thread submit edges.
SERVER_BACKEND = "server-thread"


def is_server_handler(path: str, name: str) -> bool:
    """Whether ``path::name`` is a serving-layer request entry point.

    Covers the HTTP verbs (``do_GET``/``do_POST``), the transport-
    independent dispatcher (``handle``), and the per-op handlers it
    reaches through a bound-method table the call graph cannot resolve
    statically (``_handle_query`` and friends).
    """
    return path.startswith(SERVER_PATH_PREFIX) and (
        name.startswith(("do_", "_handle_")) or name == "handle"
    )

#: Bare method names whose by-name fallback would link to builtin
#: container/str methods all over the tree — resolved only via typed
#: receivers, never by name.
NAME_FALLBACK_BLACKLIST: frozenset[str] = frozenset(
    {
        "add", "append", "clear", "close", "copy", "count", "discard",
        "extend", "flush", "format", "get", "index", "insert", "items",
        "join", "keys", "pop", "popitem", "read", "readline", "remove",
        "reverse", "set", "sort", "split", "strip", "update", "values",
        "write",
    }
)


@dataclass(frozen=True)
class Edge:
    """One resolved edge of the call graph."""

    src: str  # caller qualname (or "<module>@path")
    dst: str  # callee qualname
    kind: str  # "call" | "submit"
    backend: str | None  # submit edges: "server-thread"; call edges: None
    path: str
    line: int
    #: True when the edge came from the low-confidence by-name fallback
    #: (same-named method on an untyped receiver).  High-recall passes
    #: (worker reachability, invalidation coverage) follow these; the
    #: lock-order pass does not, so a coincidental method name cannot
    #: fabricate a deadlock cycle.
    fallback: bool = False


@dataclass
class CallGraph:
    """Adjacency view over the resolved edges."""

    edges: list[Edge] = field(default_factory=list)
    out: dict[str, list[Edge]] = field(default_factory=dict)
    into: dict[str, list[Edge]] = field(default_factory=dict)

    def add(self, edge: Edge) -> None:
        self.edges.append(edge)
        self.out.setdefault(edge.src, []).append(edge)
        self.into.setdefault(edge.dst, []).append(edge)

    def callees(self, qualname: str) -> list[Edge]:
        return self.out.get(qualname, [])

    def callers(self, qualname: str) -> list[Edge]:
        return self.into.get(qualname, [])

    def submit_edges(self) -> list[Edge]:
        return [edge for edge in self.edges if edge.kind == "submit"]


def build_call_graph(project: ProjectIndex) -> CallGraph:
    graph = CallGraph()
    for qualname in sorted(project.functions):
        info = project.functions[qualname]
        _link_function(project, graph, info)
    # Module-level code also calls things (registrations, singletons).
    for module in sorted(project.modules):
        ctx = project.modules[module]
        src = f"{module}.<module>"
        for node in ctx.nodes(ast.Call):
            if project.function_for_node(ctx, node) is not None:
                continue
            _link_call(project, graph, module, src, ctx.path, node, types={})
    # Serving-layer handler threads: synthesize a submit edge per request
    # entry point (see is_server_handler), so worker-context reachability
    # covers everything a concurrent HTTP handler can execute.
    for qualname in sorted(project.functions):
        info = project.functions[qualname]
        if isinstance(info.node, ast.Lambda):
            continue
        if is_server_handler(info.path, info.name):
            graph.add(
                Edge(
                    f"{info.module}.<module>",
                    qualname,
                    "submit",
                    SERVER_BACKEND,
                    info.path,
                    info.node.lineno,
                )
            )
    return graph


def _link_function(
    project: ProjectIndex, graph: CallGraph, info: FunctionInfo
) -> None:
    types = _local_types(project, info)
    for node in ast.walk(info.node):
        if not isinstance(node, ast.Call):
            continue
        _link_call(
            project,
            graph,
            info.module,
            info.qualname,
            info.path,
            node,
            types,
            owner_class=info.class_qualname,
        )


def _link_call(
    project: ProjectIndex,
    graph: CallGraph,
    module: str,
    src: str,
    path: str,
    call: ast.Call,
    types: dict[str, str],
    owner_class: str | None = None,
) -> None:
    line = getattr(call, "lineno", 0)
    for target, is_fallback in _resolve_callable(
        project, module, call.func, types, owner_class
    ):
        graph.add(Edge(src, target, "call", None, path, line, is_fallback))


def _resolve_callable(
    project: ProjectIndex,
    module: str,
    node: ast.AST,
    types: dict[str, str],
    owner_class: str | None = None,
) -> list[tuple[str, bool]]:
    """``(qualname, via_fallback)`` pairs ``node`` may denote."""
    # Lambda literal: resolve to its synthetic node.
    if isinstance(node, ast.Lambda):
        for qualname, info in project.functions.items():
            if info.node is node:
                return [(qualname, False)]
        return []

    # functools.partial(fn, ...) / partial(fn, ...): unwrap.
    if isinstance(node, ast.Call):
        bare = _bare_name(node.func)
        if bare == "partial" and node.args:
            return _resolve_callable(project, module, node.args[0], types, owner_class)
        return []

    dotted = _dotted(node)
    if dotted is None:
        return []

    # self.method(...) → method table with inheritance + virtual
    # dispatch: the static target plus every subclass override, so a
    # template-method base class (``preprocess`` calling
    # ``self.build_samples``) reaches the concrete implementations.
    if dotted.startswith("self.") and owner_class is not None:
        rest = dotted[len("self."):]
        if "." not in rest:
            return _method_targets(project, owner_class, rest)
        # self.attr.method(...): typed attribute?
        attr, _, method = rest.partition(".")
        cls_info = project.classes.get(owner_class)
        attr_cls = cls_info.attr_types.get(attr) if cls_info else None
        if attr_cls is not None and "." not in method:
            targets = _method_targets(project, attr_cls, method, fallback=False)
            if targets:
                return targets
        return _name_fallback(project, method.split(".")[-1])

    # Straight local/imported name (possibly dotted through a module).
    resolved = project.resolve_local(module, dotted)
    if resolved is not None and resolved in project.functions:
        return [(resolved, False)]
    if resolved is not None and resolved in project.classes:
        # Constructing a class "calls" its __init__ when indexed.
        init = project.class_method(resolved, "__init__")
        return [(init, False)] if init is not None else []

    # receiver.method(...) with a typed receiver variable.
    head, _, rest = dotted.partition(".")
    if rest and head in types and "." not in rest:
        targets = _method_targets(project, types[head], rest, fallback=False)
        if targets:
            return targets

    # Bare-name fallback (blacklisted names stay unresolved).
    bare = dotted.split(".")[-1]
    return _name_fallback(project, bare)


def _method_targets(
    project: ProjectIndex,
    class_qualname: str,
    method: str,
    fallback: bool = True,
) -> list[tuple[str, bool]]:
    """Static target plus subclass overrides; by-name as a last resort
    (only when ``fallback`` allows it)."""
    targets: set[str] = set()
    static = project.class_method(class_qualname, method)
    if static is not None:
        targets.add(static)
    for sub in project.all_subclasses(class_qualname):
        cls = project.classes.get(sub)
        if cls is not None and method in cls.methods:
            targets.add(cls.methods[method])
    if targets:
        return [(t, False) for t in sorted(targets)]
    return _name_fallback(project, method) if fallback else []


def _name_fallback(project: ProjectIndex, bare: str) -> list[tuple[str, bool]]:
    if bare in NAME_FALLBACK_BLACKLIST or bare.startswith("__"):
        return []
    candidates = project.functions_by_name.get(bare, [])
    # An unbounded fan-out means the name is too generic to be useful.
    if 0 < len(candidates) <= 4:
        return [(c, True) for c in sorted(candidates)]
    return []


def _local_types(project: ProjectIndex, info: FunctionInfo) -> dict[str, str]:
    """Variable name -> class qualname, from annotations and stores."""
    types: dict[str, str] = {}
    node = info.node
    if isinstance(node, ast.Lambda):
        return types
    imports = project.imports.get(info.module, {})

    for arg in [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]:
        if arg.annotation is None:
            continue
        ann = _annotation_name(arg.annotation)
        if ann is None:
            continue
        resolved = project.resolve_local(info.module, ann)
        if resolved is not None and resolved in project.classes:
            types[arg.arg] = resolved

    for sub in ast.walk(node):
        if not (isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call)):
            continue
        cls = project.resolve_class_of_call(sub.value, info.module, imports)
        if cls is None:
            continue
        for target in sub.targets:
            if isinstance(target, ast.Name):
                types.setdefault(target.id, cls)
    return types


def _annotation_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return _dotted(node)


def _bare_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


__all__ = [
    "NAME_FALLBACK_BLACKLIST",
    "SERVER_BACKEND",
    "SERVER_PATH_PREFIX",
    "CallGraph",
    "Edge",
    "build_call_graph",
    "is_server_handler",
]
