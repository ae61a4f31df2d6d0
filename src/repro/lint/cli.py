"""Command line interface: ``python -m repro.lint src``.

Exit codes: 0 when every finding is baselined (or there are none),
1 when fresh findings exist, 2 on usage errors.  ``--format json``
emits one machine-readable document for the CI gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.lint.baseline import (
    apply_baseline,
    baseline_payload,
    load_baseline,
)
from repro.lint.core import all_rules, lint_paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based checker for the engine's domain invariants "
            "(RL002, RL003, RL005, RL006, RL008, RL009); see docs/linting.md"
        ),
    )
    parser.add_argument(
        "paths", nargs="+", help="files or directories to check"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="JSON file of reviewed accepted findings",
    )
    parser.add_argument(
        "--rules",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help=(
            "write current findings as a deterministic baseline (sorted "
            "entries, stable key order; reasons from --baseline carry "
            "over, new entries get TODO placeholders, stale entries are "
            "pruned with a warning) and exit 0"
        ),
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rules = all_rules(
            args.rules.split(",") if args.rules else None
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    findings, n_files = lint_paths(args.paths, rules)

    entries = []
    if args.baseline:
        try:
            entries = load_baseline(args.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: cannot load baseline: {exc}", file=sys.stderr)
            return 2

    if args.write_baseline:
        existing = entries
        if not existing and Path(args.write_baseline).exists():
            # Regenerating in place: keep the reviewed reasons.
            try:
                existing = load_baseline(args.write_baseline)
            except (OSError, ValueError, json.JSONDecodeError):
                existing = []
        payload, pruned = baseline_payload(findings, existing)
        Path(args.write_baseline).write_text(
            json.dumps(payload, indent=2, sort_keys=False) + "\n",
            encoding="utf-8",
        )
        for entry in pruned:
            print(
                f"warning: pruned stale baseline entry {entry.rule} "
                f"{entry.path}::{entry.symbol} (matches no finding)",
                file=sys.stderr,
            )
        print(
            f"wrote {len(payload['entries'])} baseline entries to "
            f"{args.write_baseline}"
            + (f" ({len(pruned)} stale pruned)" if pruned else "")
        )
        return 0

    fresh, accepted, stale = apply_baseline(findings, entries)

    if args.format == "json":
        print(
            json.dumps(
                {
                    "findings": [f.to_dict() for f in fresh],
                    "baselined": [f.to_dict() for f in accepted],
                    "stale_baseline": [e.to_dict() for e in stale],
                    "summary": {
                        "checked_files": n_files,
                        "rules": [r.rule_id for r in rules],
                        "fresh": len(fresh),
                        "baselined": len(accepted),
                        "stale_baseline": len(stale),
                    },
                    "exit_code": 1 if fresh else 0,
                },
                indent=2,
            )
        )
    else:
        for finding in fresh:
            print(finding.format())
        for finding in accepted:
            print(f"{finding.format()} (baselined)")
        for entry in stale:
            print(
                f"warning: stale baseline entry {entry.rule} "
                f"{entry.path}::{entry.symbol} matches nothing; delete it"
            )
        print(
            f"{n_files} files checked: {len(fresh)} findings, "
            f"{len(accepted)} baselined, {len(stale)} stale baseline "
            "entries"
        )
    return 1 if fresh else 0
