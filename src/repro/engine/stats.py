"""Column statistics — the first pre-processing scan.

Small group sampling's first pass over the data counts the occurrences of
every distinct value in every column, dropping a column from consideration
once its distinct-value count exceeds the threshold ``τ`` (Section 4.2.1;
the paper uses τ = 5000).  :func:`collect_column_stats` reproduces that
scan over a flat table (or star-schema joined view) and reports, per
retained column, the value→frequency map that the second pass needs.

The same statistics drive the workload generator (eligible grouping
columns, distinct-value subsets for IN predicates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.engine.column import ColumnKind, count_raw_values
from repro.engine.parallel import ExecutionOptions, map_row_chunks, resolve_options
from repro.engine.table import Table

#: Distinct-value cutoff used in the paper's experiments.
DEFAULT_DISTINCT_THRESHOLD = 5000


@dataclass(frozen=True)
class ColumnStats:
    """Frequency statistics for one column.

    Attributes
    ----------
    name:
        Column name.
    kind:
        Column kind.
    frequencies:
        Decoded value → number of occurrences.
    """

    name: str
    kind: ColumnKind
    frequencies: dict[Any, int]

    @property
    def distinct_count(self) -> int:
        """Number of distinct values."""
        return len(self.frequencies)

    @property
    def total_count(self) -> int:
        """Total rows counted (the table's row count)."""
        return sum(self.frequencies.values())

    def values_by_frequency(self) -> list[tuple[Any, int]]:
        """Distinct values sorted by descending frequency (ties by value)."""
        return sorted(
            self.frequencies.items(), key=lambda item: (-item[1], str(item[0]))
        )

    def common_values(self, small_fraction: float) -> set[Any]:
        """Compute the paper's common-value set ``L(C)``.

        ``L(C)`` is the *minimal* set of values, taken in descending
        frequency order, whose frequencies sum to at least
        ``N * (1 - small_fraction)``.  Rows with values outside ``L(C)``
        belong to small groups and go into the column's small group table,
        of which there are at most ``N * small_fraction``.
        """
        if not 0.0 <= small_fraction <= 1.0:
            raise ValueError(
                f"small fraction must be in [0, 1], got {small_fraction}"
            )
        target = self.total_count * (1.0 - small_fraction)
        covered = 0
        common: set[Any] = set()
        for value, count in self.values_by_frequency():
            if covered >= target:
                break
            common.add(value)
            covered += count
        return common


def column_stats(table: Table, name: str) -> ColumnStats:
    """Compute frequency statistics for one column."""
    col = table.column(name)
    return ColumnStats(name=name, kind=col.kind, frequencies=col.value_counts())


def collect_column_stats(
    table: Table,
    columns: list[str] | None = None,
    distinct_threshold: int = DEFAULT_DISTINCT_THRESHOLD,
    options: ExecutionOptions | None = None,
) -> dict[str, ColumnStats]:
    """First pre-processing scan: frequency maps for retained columns.

    Columns whose distinct-value count exceeds ``distinct_threshold`` are
    dropped (they are poor grouping candidates and their hashtables would
    be large — Section 4.2.1).  The scan is vectorised per column; the
    effect is identical to the paper's streaming hashtable build.

    With ``options.max_workers > 1`` the scan is chunked over row
    ranges: every chunk builds one value histogram per candidate column
    and the per-chunk histograms are map-reduced by summation.  Counts
    are integers, so the reduction is exact and the result is identical
    to the serial scan for any worker count.
    """
    if columns is None:
        columns = table.column_names
    options = resolve_options(options)
    if options.workers > 1 and table.n_rows > options.chunk_rows:
        return _collect_column_stats_chunked(
            table, columns, distinct_threshold, options
        )
    retained: dict[str, ColumnStats] = {}
    for name in columns:
        col = table.column(name)
        if len(col) == 0:
            continue
        values, counts = col.raw_value_counts()
        if values.size > distinct_threshold:
            continue
        retained[name] = ColumnStats(
            name=name,
            kind=col.kind,
            frequencies=col.decode_counts(values.tolist(), counts.tolist()),
        )
    return retained


def _histogram(data: np.ndarray, is_codes: bool) -> dict[Any, int]:
    """Raw value → count for one row chunk of one column."""
    values, counts = count_raw_values(data, is_codes)
    return dict(zip(values.tolist(), counts.tolist()))


def _collect_column_stats_chunked(
    table: Table,
    columns: list[str],
    distinct_threshold: int,
    options: ExecutionOptions,
) -> dict[str, ColumnStats]:
    """Chunked map-reduce variant of :func:`collect_column_stats`."""
    cols = [(name, table.column(name)) for name in columns]
    cols = [(name, col) for name, col in cols if len(col) > 0]
    if not cols:
        return {}

    def _histograms(start: int, stop: int) -> list[dict[Any, int]]:
        return [
            _histogram(col.data[start:stop], col.kind is ColumnKind.STRING)
            for _, col in cols
        ]

    chunks = map_row_chunks(_histograms, table.n_rows, options)

    merged: list[dict[Any, int]] = [{} for _ in cols]
    for chunk in chunks:
        for acc, part in zip(merged, chunk):
            for value, count in part.items():
                acc[value] = acc.get(value, 0) + count
    retained: dict[str, ColumnStats] = {}
    for (name, col), raw_counts in zip(cols, merged):
        if len(raw_counts) > distinct_threshold:
            continue
        raw_values = sorted(raw_counts)
        retained[name] = ColumnStats(
            name=name,
            kind=col.kind,
            frequencies=col.decode_counts(
                raw_values, [raw_counts[v] for v in raw_values]
            ),
        )
    return retained


def per_group_selectivity(group_sizes: list[int], total_rows: int) -> float:
    """Average group size as a fraction of the table (Section 5.3.1).

    The paper bins queries by this quantity ("per group selectivity") when
    reporting Figure 5.
    """
    if not group_sizes or total_rows <= 0:
        return 0.0
    return float(np.mean(group_sizes)) / float(total_rows)
