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

from repro.engine.column import ColumnKind
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
) -> dict[str, ColumnStats]:
    """First pre-processing scan: frequency maps for retained columns.

    Columns whose distinct-value count exceeds ``distinct_threshold`` are
    dropped (they are poor grouping candidates and their hashtables would
    be large — Section 4.2.1).  The scan is vectorised per column; the
    effect is identical to the paper's streaming hashtable build.
    """
    if columns is None:
        columns = table.column_names
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


def per_group_selectivity(group_sizes: list[int], total_rows: int) -> float:
    """Average group size as a fraction of the table (Section 5.3.1).

    The paper bins queries by this quantity ("per group selectivity") when
    reporting Figure 5.
    """
    if not group_sizes or total_rows <= 0:
        return 0.0
    return float(np.mean(group_sizes)) / float(total_rows)
