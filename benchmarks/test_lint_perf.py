"""Lint-runner performance: shared node index vs per-rule tree walks.

PR 7 moved every rule onto :meth:`FileContext.nodes` — one pre-order
walk per file building a node-type index that every rule (and
the whole-program passes) filter, instead of each rule re-walking the
tree itself.  This benchmark keeps that refactor honest:

* **shared** — the production path: warm per-file indexes, every rule
  filters the one walk.
* **per-rule-walk** — the legacy discipline, reproduced by resetting
  each context's index before every rule so each rule's first
  ``nodes()`` call triggers a fresh full traversal (exactly the cost of
  the old ``for node in ast.walk(ctx.tree)`` loops, same rule logic).

Both modes run the same rules over the same parsed contexts and must
produce identical findings.  Results go to ``BENCH_lint.json`` at the
repo root: full-``src/`` wall time, files/sec, and the before/after
pair.  Two gates:

* the shared-index run is no slower than the per-rule-walk baseline
  (small tolerance for timer noise);
* a full lint of ``src/`` — parse, all rules, project index, call
  graph, dataflow — finishes under the 30-second CI budget.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.lint.core import _run_rules, all_rules, parse_paths

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

REPEATS = int(os.environ.get("REPRO_LINT_BENCH_REPEATS", "3"))

#: Full-src lint must stay inside the CI budget (seconds).
BUDGET_SECONDS = 30.0

#: Shared must beat legacy up to timer noise on tiny trees.
NOISE_TOLERANCE = 1.10


def _reset_context(ctx) -> None:
    """Drop a context's caches so the next ``nodes()`` call re-walks."""
    ctx._symbols = None
    ctx._by_type = None
    ctx._aliases = None


def _run_shared(contexts, rules):
    """Production path: one walk per file, shared across all rules."""
    for ctx in contexts:
        _reset_context(ctx)
    start = time.perf_counter()
    findings = _run_rules(contexts, rules)
    return time.perf_counter() - start, findings


def _run_per_rule_walk(contexts, rules):
    """Legacy discipline: every rule re-walks every applicable file."""
    for ctx in contexts:
        _reset_context(ctx)
    start = time.perf_counter()
    findings = []
    file_rules = [r for r in rules if not r.project_wide]
    for rule in file_rules:
        for ctx in contexts:
            _reset_context(ctx)  # next nodes() call walks the tree again
            if rule.applies_to(ctx):
                findings.extend(rule.check(ctx))
    project_rules = [r for r in rules if r.project_wide]
    if project_rules:
        for ctx in contexts:
            _reset_context(ctx)
        from repro.lint.project import ProjectIndex

        project = ProjectIndex(contexts)
        for rule in project_rules:
            findings.extend(rule.check_project(project))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return time.perf_counter() - start, findings


def test_shared_index_not_slower_than_per_rule_walks():
    rules = all_rules()
    contexts, errors, n_files = parse_paths([SRC])
    assert not errors and n_files > 50

    # Full pipeline wall time (parse + everything), for the CI budget.
    start = time.perf_counter()
    fresh_contexts, _, _ = parse_paths([SRC])
    _run_rules(fresh_contexts, rules)
    full_seconds = time.perf_counter() - start

    shared_best = legacy_best = float("inf")
    shared_findings = legacy_findings = None
    for _ in range(REPEATS):
        seconds, findings = _run_shared(contexts, rules)
        if seconds < shared_best:
            shared_best, shared_findings = seconds, findings
        seconds, findings = _run_per_rule_walk(contexts, rules)
        if seconds < legacy_best:
            legacy_best, legacy_findings = seconds, findings

    # Same rules, same files: the index is an optimisation, not a
    # behaviour change.
    assert shared_findings == legacy_findings

    payload = {
        "benchmark": "lint_runner",
        "files": n_files,
        "rules": len(rules),
        "repeats": REPEATS,
        "full_lint_seconds": round(full_seconds, 4),
        "files_per_second": round(n_files / full_seconds, 1),
        "shared_index_seconds": round(shared_best, 4),
        "per_rule_walk_seconds": round(legacy_best, 4),
        "speedup": round(legacy_best / shared_best, 2),
        "findings_identical": True,
        "budget_seconds": BUDGET_SECONDS,
    }
    out = REPO_ROOT / "BENCH_lint.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print("\n" + json.dumps(payload, indent=2))

    assert full_seconds < BUDGET_SECONDS, payload
    assert shared_best <= legacy_best * NOISE_TOLERANCE, payload
