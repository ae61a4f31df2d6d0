"""repro.lint — AST-based checker for the engine's domain invariants.

Six per-file rules encode the correctness contracts the generic
linters cannot see (see ``docs/linting.md`` for the full rationale;
RL001, RL004, RL007 and RL010–RL014 are retired and stay reserved):

* **RL002** rewrite-piece scale discipline (the §4.2.2 invariant);
* **RL003** wall clocks / fresh entropy in deterministic layers;
* **RL005** bare ``assert`` guards (stripped under ``python -O``);
* **RL006** ``print`` outside the presentation layer;
* **RL008** in-place writes into published column/bitmask arrays;
* **RL009** observability reads in compute layers.

Run ``python -m repro.lint src [--format json|text] [--baseline
lint_baseline.json]``; CI gates on the JSON output.
"""

from repro.lint.baseline import (
    BaselineEntry,
    apply_baseline,
    baseline_payload,
    load_baseline,
)
from repro.lint.cli import main
from repro.lint.core import (
    FileContext,
    Finding,
    Rule,
    all_rules,
    lint_paths,
    lint_source,
    register,
)

__all__ = [
    "BaselineEntry",
    "FileContext",
    "Finding",
    "Rule",
    "all_rules",
    "apply_baseline",
    "baseline_payload",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "main",
    "register",
]
