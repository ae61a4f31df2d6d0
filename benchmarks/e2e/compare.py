"""``--compare A.json B.json``: do two result files agree within the bounds?"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.e2e.config import metric_table


def compare(path_a: Path, path_b: Path) -> tuple[list[str], bool]:
    """One row per workload x end-to-end metric; whether all are within bound.

    The bound is the share of A's value by which B may differ, as in
    ``BENCHMARK.json``; a difference either way beyond it is flagged, and
    the verdict says which way it went.
    """
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    table = metric_table("end_to_end")
    rows = [
        f"{'workload':<13}{'metric':<19}{'A':>12}{'B':>12} {'unit':<6}{'B/A':>8}{'bound':>7}  verdict"
    ]
    agree = True
    for workload in sorted(set(a) & set(b)):
        for name, entry in table.items():
            va = a[workload]["metrics"][name]["value"]
            vb = b[workload]["metrics"][name]["value"]
            ratio = vb / va
            change = ratio - 1.0
            if abs(change) <= entry["bound"]:
                verdict = "ok"
            else:
                worse = change > 0 if entry["better"] == "lower" else change < 0
                verdict = "DIFFERS (worse)" if worse else "DIFFERS (better)"
                agree = False
            rows.append(
                f"{workload:<13}{name:<19}{va:>12.4f}{vb:>12.4f} {entry['unit']:<6}"
                f"{ratio:>8.3f}{entry['bound']:>7.2f}  {verdict} (base {va:.4f})"
            )
    for workload in sorted(set(a) ^ set(b)):
        rows.append(f"{workload:<13}present in only one file")
        agree = False
    return rows, agree
