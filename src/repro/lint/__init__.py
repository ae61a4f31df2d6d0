"""repro.lint — AST-based checker for the engine's domain invariants.

Eleven rules encode the correctness contracts the generic linters
cannot see (see ``docs/linting.md`` for the full rationale; RL007,
RL010 and RL014 are retired and stay reserved):

* **RL001** mutation without cache/plan invalidation;
* **RL002** rewrite-piece scale discipline (the §4.2.2 invariant);
* **RL003** wall clocks / fresh entropy in deterministic layers;
* **RL004** computed expressions as identity-cache anchors;
* **RL005** bare ``assert`` guards (stripped under ``python -O``);
* **RL006** ``print`` outside the presentation layer;
* **RL008** in-place writes into published column/bitmask arrays;
* **RL009** observability reads in compute layers;
* **RL011** unlocked shared-state mutation reachable from a server
  request handler (whole-program, call-graph based);
* **RL012** lock-order cycles / potential deadlocks (whole-program);
* **RL013** interprocedural invalidation coverage (RL001 upgraded).

RL011–RL013 run over a shared single-parse project index
(:mod:`repro.lint.project`), a conservative call graph with
server-thread submit edges (:mod:`repro.lint.callgraph`), and
interprocedural dataflow passes (:mod:`repro.lint.dataflow`).

Run ``python -m repro.lint src [--format json|text] [--baseline
lint_baseline.json] [--graph-report out.json]``; CI gates on the JSON
output and uploads the graph report.
"""

from repro.lint.baseline import (
    BaselineEntry,
    apply_baseline,
    baseline_payload,
    load_baseline,
)
from repro.lint.callgraph import CallGraph, build_call_graph
from repro.lint.cli import main
from repro.lint.core import (
    FileContext,
    Finding,
    Rule,
    all_rules,
    lint_paths,
    lint_source,
    parse_paths,
    register,
)
from repro.lint.dataflow import ProjectAnalysis
from repro.lint.project import ProjectIndex

__all__ = [
    "BaselineEntry",
    "CallGraph",
    "FileContext",
    "Finding",
    "ProjectAnalysis",
    "ProjectIndex",
    "Rule",
    "all_rules",
    "apply_baseline",
    "baseline_payload",
    "build_call_graph",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "main",
    "parse_paths",
    "register",
]
