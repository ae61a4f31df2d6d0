"""Plain-text reporting: figure runs, ASCII charts, CSV export.

The benchmark harness and ``python -m repro figure`` print the same
rows/series the paper's figures plot (:func:`render_run`) and write them
to CSV (:func:`write_figure_csv`); these helpers keep that output
readable in a terminal and easy to diff across runs.  The aligned text
table itself is the product's (:func:`repro.sql.formatter.format_table`).
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path
from typing import TYPE_CHECKING

from repro.sql.formatter import _cell, format_table

if TYPE_CHECKING:
    from repro.experiments.figures import FigureRun


def render_run(run: FigureRun, note: str = "") -> str:
    """Render one figure run as text: each series, then its extras."""
    lines = [f"=== Paper figure/table {run.figure} ==="]
    if note:
        lines.append(note)
    for name, data in sorted(run.series.items()):
        lines.append(f"-- {name}")
        lines.append(
            format_table(["x", "value"], [[x, y] for x, y in data.items()])
        )
    if run.extras:
        lines.append("-- extras")
        lines.append(
            format_table(
                ["key", "value"],
                [[k, v] for k, v in sorted(run.extras.items())],
            )
        )
    return "\n".join(lines)


def write_figure_csv(run: FigureRun, out_dir: str | Path) -> Path:
    """Write ``run``'s series to ``out_dir/figure_<id>.csv``; return the path."""
    path = Path(out_dir) / f"figure_{run.figure.replace('.', '_')}.csv"
    rows = [
        [series, x, y]
        for series, data in sorted(run.series.items())
        for x, y in data.items()
    ]
    write_csv(path, ["series", "x", "value"], rows)
    return path


def ascii_chart(
    xs: Sequence[object],
    series: Mapping[str, Sequence[float]],
    width: int = 64,
    height: int = 16,
    log_y: bool = False,
    title: str = "",
) -> str:
    """Render one or more y-series over shared x positions as ASCII art.

    Each series gets a marker character; the x axis is positional (the x
    labels are listed underneath), which suits the paper's categorical
    sweeps (number of grouping columns, skew values, rates).
    """
    markers = "*o+x#@%&"
    values = [
        v
        for ys in series.values()
        for v in ys
        if v == v and (not log_y or v > 0)
    ]
    if not values:
        return f"{title}\n(no data)"
    lo, hi = min(values), max(values)
    if log_y:
        lo, hi = math.log10(lo), math.log10(hi)
    if hi == lo:
        hi = lo + 1.0
    grid = [[" "] * width for _ in range(height)]
    n = len(xs)
    for s_index, (_, ys) in enumerate(series.items()):
        marker = markers[s_index % len(markers)]
        for i, y in enumerate(ys):
            if y != y or (log_y and y <= 0):
                continue
            value = math.log10(y) if log_y else y
            col = int(round(i * (width - 1) / max(1, n - 1)))
            row = int(round((value - lo) / (hi - lo) * (height - 1)))
            grid[height - 1 - row][col] = marker
    axis = "log10" if log_y else "linear"
    top = 10**hi if log_y else hi
    bottom = 10**lo if log_y else lo
    lines = []
    if title:
        lines.append(title)
    lines.append(f"y: {_cell(bottom)} .. {_cell(top)} ({axis})")
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.append("x: " + " ".join(_cell(x) for x in xs))
    legend = "  ".join(
        f"{markers[i % len(markers)]}={name}"
        for i, name in enumerate(series)
    )
    lines.append(legend)
    return "\n".join(lines)


def write_csv(
    path: str | Path,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> None:
    """Write rows to a CSV file (for downstream plotting)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        for row in rows:
            writer.writerow(row)


def selectivity_bin_edges() -> list[float]:
    """Per-group-selectivity bin edges used by Figure 5 (log scale)."""
    return [0.0, 0.0002, 0.0004, 0.0008, 0.0016, 0.0032, 0.0064, 0.0128]


def selectivity_bin_label(selectivity: float) -> str:
    """Label a per-group selectivity with its Figure 5 bin."""
    edges = selectivity_bin_edges()
    for low, high in zip(edges, edges[1:]):
        if low <= selectivity < high:
            return f"{low:.2%}-{high:.2%}"
    return f">={edges[-1]:.2%}"
