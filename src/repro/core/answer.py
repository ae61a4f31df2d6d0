"""Approximate answer containers.

An :class:`ApproxAnswer` is what an AQP technique returns for one query:
per-group estimates with variances, exactness flags (small-group-derived
groups are exact — Section 4.2.2), confidence intervals, and provenance
(which sample tables were used, the rewritten SQL, rows scanned).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.confidence import normal_interval
from repro.errors import RuntimePhaseError

GroupKey = tuple[Any, ...]


@dataclass
class GroupEstimate:
    """Estimate of one aggregate value for one group.

    Attributes
    ----------
    value:
        The (scaled) estimate.
    variance:
        Estimated variance of the estimator; 0 for exact values.
    exact:
        Whether every contribution to this group came from a zero-variance
        (100%-sampled) stratum, in which case the value is exact.
    """

    value: float
    variance: float = 0.0
    exact: bool = False

    def confidence_interval(self, level: float = 0.95) -> tuple[float, float]:
        """Normal-approximation confidence interval (degenerate if exact)."""
        if self.exact or self.variance <= 0.0:
            return (self.value, self.value)
        return normal_interval(self.value, self.variance, level)


@dataclass
class ApproxAnswer:
    """Approximate answer to one aggregation query.

    Attributes
    ----------
    group_columns:
        Grouping columns of the query.
    aggregate_names:
        Output names of the query's aggregates.
    groups:
        Group key → one :class:`GroupEstimate` per aggregate.
    technique:
        Name of the AQP technique that produced the answer.
    rows_scanned:
        Total sample rows scanned to answer the query (the runtime cost).
    pieces:
        Human-readable description of each sample table queried.
    rewritten_sql:
        The rewritten UNION ALL statement, when the technique rewrites SQL.
    top_k_confident:
        For LIMIT queries ordered by an estimated aggregate: whether the
        confidence interval of the last kept group is disjoint from that
        of the best dropped group — i.e. whether the approximate top-k
        cut is statistically separated.  ``None`` when not applicable.
    trace:
        Root :class:`~repro.obs.trace.Span` of the execution, when the
        caller requested profiling (``session.sql(..., profile=True)``);
        ``None`` otherwise.  Pure diagnostics —
        the estimates are byte-identical with tracing on or off
        (enforced by lint rule RL009 and the determinism sweep test).
    """

    group_columns: tuple[str, ...]
    aggregate_names: tuple[str, ...]
    groups: dict[GroupKey, tuple[GroupEstimate, ...]]
    technique: str = ""
    rows_scanned: int = 0
    pieces: tuple[str, ...] = field(default_factory=tuple)
    rewritten_sql: str | None = None
    top_k_confident: bool | None = None
    trace: Any | None = None

    @property
    def n_groups(self) -> int:
        """Number of groups present in the answer."""
        return len(self.groups)

    def _agg_index(self, aggregate: str | None) -> int:
        if aggregate is None:
            return 0
        try:
            return self.aggregate_names.index(aggregate)
        except ValueError:
            raise RuntimePhaseError(
                f"no aggregate {aggregate!r}; have {self.aggregate_names}"
            ) from None

    def estimate(self, group: GroupKey, aggregate: str | None = None) -> GroupEstimate:
        """The estimate object for one group and aggregate."""
        idx = self._agg_index(aggregate)
        try:
            return self.groups[group][idx]
        except KeyError:
            raise RuntimePhaseError(f"group {group!r} not in answer") from None

    def value(self, group: GroupKey, aggregate: str | None = None) -> float:
        """The estimated value for one group."""
        return self.estimate(group, aggregate).value

    def as_dict(self, aggregate: str | None = None) -> dict[GroupKey, float]:
        """Group → estimated value for one aggregate."""
        idx = self._agg_index(aggregate)
        return {g: ests[idx].value for g, ests in self.groups.items()}

    def confidence_interval(
        self, group: GroupKey, aggregate: str | None = None, level: float = 0.95
    ) -> tuple[float, float]:
        """Confidence interval for one group's estimate."""
        return self.estimate(group, aggregate).confidence_interval(level)

    def exact_groups(self) -> set[GroupKey]:
        """Groups whose values are exact (from small group tables)."""
        return {
            g for g, ests in self.groups.items() if all(e.exact for e in ests)
        }

    def to_table(
        self, name: str = "answer", level: float = 0.95
    ) -> "Table":
        """Materialise the answer as an engine table.

        Columns: the group columns, then per aggregate its estimate plus
        ``<name>_lo`` / ``<name>_hi`` confidence bounds, and finally an
        ``exact`` indicator (1 for small-group-served groups) — ready to
        persist with :mod:`repro.storage` or re-query with the engine.
        """
        from repro.engine.column import Column
        from repro.engine.table import Table

        if not self.groups:
            raise RuntimePhaseError("cannot materialise an empty answer")
        data: dict[str, list] = {}
        for i, column in enumerate(self.group_columns):
            data[column] = [g[i] for g in self.groups]
        for j, agg in enumerate(self.aggregate_names):
            estimates = [ests[j] for ests in self.groups.values()]
            data[agg] = [e.value for e in estimates]
            intervals = [e.confidence_interval(level) for e in estimates]
            data[f"{agg}_lo"] = [lo for lo, _ in intervals]
            data[f"{agg}_hi"] = [hi for _, hi in intervals]
        data["exact"] = [
            int(all(e.exact for e in ests)) for ests in self.groups.values()
        ]
        return Table(
            name, {c: Column.from_values(v) for c, v in data.items()}
        )
