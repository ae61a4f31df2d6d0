"""``--graph-report``: JSON + Graphviz export of the analysis graphs.

The whole-program analyzer's value is only auditable if its view of the
system is inspectable: which functions it thinks run on handler
threads, and which lock nests inside which.  This
module renders the shared :class:`~repro.lint.project.ProjectIndex` /
:class:`~repro.lint.dataflow.ProjectAnalysis` into

* one **JSON document** (counts, edge lists, worker-context map,
  lock-order edges and cycles) — uploaded as a
  CI artifact so every PR's graph is diffable against the last; and
* two **dot graphs** — the call graph (submit edges dashed, labelled
  with their backend) and the lock-order graph (nodes carry the lock
  kind) — renderable with any Graphviz install, none required here.

Everything is emitted in sorted order so reports are byte-stable across
runs and machines.
"""

from __future__ import annotations

from repro.lint.dataflow import ProjectAnalysis
from repro.lint.project import ProjectIndex


def graph_report(project: ProjectIndex) -> dict:
    """The machine-readable report (strict-JSON-safe, deterministic)."""
    graph = project.call_graph()
    analysis = project.analysis()

    call_edges = sorted(
        (e for e in graph.edges if e.kind == "call"),
        key=lambda e: (e.src, e.dst, e.path, e.line),
    )
    submit_edges = sorted(
        graph.submit_edges(),
        key=lambda e: (e.src, e.dst, e.path, e.line),
    )
    lock_edges = sorted(
        {
            (e.outer, e.inner, e.path, e.line, e.via, e.direct)
            for e in analysis.lock_order
        }
    )
    cycles = analysis.lock_cycles()

    return {
        "summary": {
            "modules": len(project.modules),
            "functions": len(project.functions),
            "classes": len(project.classes),
            "call_edges": len(call_edges),
            "submit_edges": len(submit_edges),
            "worker_reachable_functions": len(analysis.worker_context),
            "locks": len(analysis.locks),
            "lock_order_edges": len(lock_edges),
            "lock_cycles": len(cycles),
            "invalidating_functions": len(analysis.invalidators),
        },
        "submit_edges": [
            {
                "src": e.src,
                "dst": e.dst,
                "backend": e.backend,
                "path": e.path,
                "line": e.line,
            }
            for e in submit_edges
        ],
        "worker_context": {
            qualname: sorted(backends)
            for qualname, backends in sorted(analysis.worker_context.items())
        },
        "locks": {
            name: analysis.locks[name].kind for name in sorted(analysis.locks)
        },
        "lock_order": [
            {
                "outer": outer,
                "inner": inner,
                "path": path,
                "line": line,
                "via": via,
                "direct": direct,
            }
            for outer, inner, path, line, via, direct in lock_edges
        ],
        "lock_cycles": [
            [
                {
                    "outer": e.outer,
                    "inner": e.inner,
                    "path": e.path,
                    "line": e.line,
                    "via": e.via,
                }
                for e in cycle
            ]
            for cycle in cycles
        ],
        "call_edges": [
            {
                "src": e.src,
                "dst": e.dst,
                "path": e.path,
                "line": e.line,
                "fallback": e.fallback,
            }
            for e in call_edges
        ],
    }


def callgraph_dot(project: ProjectIndex) -> str:
    """Graphviz rendering of the call graph (submit edges dashed)."""
    graph = project.call_graph()
    lines = [
        "digraph callgraph {",
        "  rankdir=LR;",
        '  node [shape=box, fontsize=10, fontname="monospace"];',
    ]
    nodes: set[str] = set()
    for edge in graph.edges:
        nodes.add(edge.src)
        nodes.add(edge.dst)
    for node in sorted(nodes):
        lines.append(f'  "{node}";')
    seen: set[tuple[str, str, str]] = set()
    for edge in sorted(
        graph.edges, key=lambda e: (e.src, e.dst, e.kind, e.line)
    ):
        key = (edge.src, edge.dst, edge.kind)
        if key in seen:
            continue
        seen.add(key)
        if edge.kind == "submit":
            label = edge.backend or "unknown"
            lines.append(
                f'  "{edge.src}" -> "{edge.dst}" '
                f'[style=dashed, color=red, label="{label}"];'
            )
        else:
            style = ", style=dotted" if edge.fallback else ""
            lines.append(f'  "{edge.src}" -> "{edge.dst}" [{("color=gray" + style)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def lockorder_dot(analysis: ProjectAnalysis) -> str:
    """Graphviz rendering of the lock-order graph (kind on each node)."""
    lines = [
        "digraph lockorder {",
        '  node [shape=ellipse, fontsize=10, fontname="monospace"];',
    ]
    for name in sorted(analysis.locks):
        kind = analysis.locks[name].kind
        lines.append(f'  "{name}" [label="{name}\\n({kind})"];')
    seen: set[tuple[str, str]] = set()
    for edge in sorted(
        analysis.lock_order, key=lambda e: (e.outer, e.inner, e.line)
    ):
        key = (edge.outer, edge.inner)
        if key in seen:
            continue
        seen.add(key)
        style = "solid" if edge.direct else "dashed"
        lines.append(
            f'  "{edge.outer}" -> "{edge.inner}" '
            f'[style={style}, label="{edge.path.rsplit("/", 1)[-1]}:{edge.line}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


__all__ = ["callgraph_dot", "graph_report", "lockorder_dot"]
