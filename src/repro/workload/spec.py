"""Workload specification dataclasses (Section 5.2.3)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.expressions import Query
from repro.errors import WorkloadError


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of the paper's random query workload.

    The paper generates random select-project-join queries with group-bys
    and COUNT/SUM aggregates: 1–4 grouping columns, 1–2 IN-subset selection
    predicates with subset fraction between 0.05 and 0.3 of the column's
    distinct values, 20 queries per parameter combination.

    Attributes
    ----------
    group_column_counts:
        Numbers of grouping columns to sweep.
    predicate_counts:
        Numbers of selection predicates to sweep.
    subset_fractions:
        Fractions of a predicate column's distinct values placed in the
        IN list.
    aggregate:
        ``"COUNT"`` or ``"SUM"``.
    queries_per_combo:
        Queries generated per (g, #predicates, fraction) combination.
    measure_columns:
        Numeric columns eligible for SUM (required when aggregate="SUM").
    exclude_columns:
        Columns never used for grouping or predicates (keys, free text).
    max_grouping_distinct:
        Columns with more distinct values than this are excluded (the
        paper excludes near-unique columns such as customer address).
    seed:
        RNG seed; workloads are fully reproducible.
    """

    group_column_counts: tuple[int, ...] = (1, 2, 3, 4)
    predicate_counts: tuple[int, ...] = (1, 2)
    subset_fractions: tuple[float, ...] = (0.05, 0.1, 0.2, 0.3)
    aggregate: str = "COUNT"
    queries_per_combo: int = 20
    measure_columns: tuple[str, ...] = ()
    exclude_columns: tuple[str, ...] = ()
    max_grouping_distinct: int = 5000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.aggregate not in ("COUNT", "SUM"):
            raise WorkloadError(
                f"aggregate must be COUNT or SUM, got {self.aggregate!r}"
            )
        if self.aggregate == "SUM" and not self.measure_columns:
            raise WorkloadError("SUM workloads require measure_columns")
        for fraction in self.subset_fractions:
            if not 0.0 < fraction <= 1.0:
                raise WorkloadError(
                    f"subset fraction must be in (0, 1], got {fraction}"
                )
        if self.queries_per_combo <= 0:
            raise WorkloadError("queries_per_combo must be positive")


@dataclass(frozen=True)
class WorkloadQuery:
    """One generated query plus the sweep parameters that produced it.

    The experiment harness bins metrics by these parameters (e.g. RelErr
    as a function of the number of grouping columns).
    """

    query: Query
    n_group_columns: int
    n_predicates: int
    subset_fraction: float
    aggregate: str
    index: int = 0


@dataclass(frozen=True)
class Workload:
    """A generated workload: queries plus the config that produced them."""

    config: WorkloadConfig
    queries: tuple[WorkloadQuery, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.queries)
