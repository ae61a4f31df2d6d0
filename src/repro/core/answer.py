"""Approximate answer containers.

An :class:`ApproxAnswer` is what an AQP technique returns for one query:
per-group estimates with variances, exactness flags (small-group-derived
groups are exact — Section 4.2.2), confidence intervals, and provenance
(which sample tables were used, the rewritten SQL, rows scanned).  It
holds one array per aggregate for each of these, aligned with its group
keys; :class:`GroupEstimate` is the one-cell view :meth:`ApproxAnswer.estimate`
returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from repro.core.confidence import normal_interval, z_value
from repro.core.rewriter import SamplePiece, pieces_to_sql
from repro.engine.executor import GroupColumns, GroupKey
from repro.engine.expressions import Query
from repro.errors import QueryError, RuntimePhaseError


@dataclass
class GroupEstimate:
    """One cell of an :class:`ApproxAnswer`: a group's estimate of one aggregate.

    ``value``, ``variance`` and ``exact`` are as in the answer's arrays.
    """

    value: float
    variance: float = 0.0
    exact: bool = False

    def confidence_interval(self, level: float = 0.95) -> tuple[float, float]:
        """Normal-approximation confidence interval (degenerate if exact)."""
        if self.exact or self.variance <= 0.0:
            return (self.value, self.value)
        return normal_interval(self.value, self.variance, level)


@dataclass(eq=False)
class ApproxAnswer(GroupColumns):
    """Approximate answer to one aggregation query.

    Attributes (besides :class:`~repro.engine.executor.GroupColumns`'
    keys and per-aggregate value arrays, the estimates)
    ----------
    variances:
        One ``float64`` array of estimator variances per aggregate; 0
        for exact values.
    exact:
        One ``bool`` array per aggregate: whether every contribution to
        the group came from a zero-variance (100%-sampled) stratum, in
        which case the value is exact.
    technique:
        Name of the AQP technique that produced the answer.
    rows_scanned:
        Total sample rows scanned to answer the query (the runtime cost).
    pieces:
        Human-readable description of each sample table queried.
    executed:
        The ``(piece, query)`` pairs that ran: each sample piece with
        the additive-component query executed on it.  Empty when the
        answer was not produced by piece execution.
    top_k_confident:
        For LIMIT queries ordered by an estimated aggregate: whether the
        confidence interval of the last kept group is disjoint from that
        of the best dropped group — i.e. whether the approximate top-k
        cut is statistically separated.  ``None`` when not applicable.
    """

    variances: tuple[np.ndarray, ...]
    exact: tuple[np.ndarray, ...]
    technique: str = ""
    rows_scanned: int = 0
    pieces: tuple[str, ...] = field(default_factory=tuple)
    executed: tuple[tuple[SamplePiece, Query], ...] = field(
        default=(), repr=False
    )
    top_k_confident: bool | None = None

    group_arrays: ClassVar[tuple[str, ...]] = ("values", "variances", "exact")

    @property
    def rewritten_sql(self) -> str | None:
        """The rewritten UNION ALL statement that ran (paper §4.2.2).

        Rendered from :attr:`executed` when read; ``None`` without it.
        """
        if not self.executed:
            return None
        return pieces_to_sql(
            [replace(piece, query=query) for piece, query in self.executed]
        )

    def intervals(
        self, level: float = 0.95
    ) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per aggregate, the ``(low, high)`` arrays of every group's interval.

        :meth:`GroupEstimate.confidence_interval` for all groups at once:
        ``value ± z·sqrt(variance)``, or ``(value, value)`` where the
        group is exact or its variance is not positive.
        """
        z = z_value(level)
        bounds = []
        for values, variances, exact in zip(
            self.values, self.variances, self.exact
        ):
            degenerate = exact | (variances <= 0.0)
            with np.errstate(invalid="ignore"):
                half = z * np.sqrt(variances)
            low = np.where(degenerate, values, values - half)
            bounds.append((low, np.where(degenerate, values, values + half)))
        return tuple(bounds)

    @property
    def groups(self) -> dict[GroupKey, tuple[GroupEstimate, ...]]:
        """Group key → one :class:`GroupEstimate` per aggregate (a view)."""
        per_aggregate = [
            map(GroupEstimate, values.tolist(), variances.tolist(), flags.tolist())
            for values, variances, flags in zip(
                self.values, self.variances, self.exact
            )
        ]
        return dict(zip(self.keys, zip(*per_aggregate)))

    def _agg_index(self, aggregate: str | None) -> int:
        try:
            return super()._agg_index(aggregate)
        except QueryError as error:
            raise RuntimePhaseError(str(error)) from None

    def estimate(self, group: GroupKey, aggregate: str | None = None) -> GroupEstimate:
        """The estimate of one group and aggregate."""
        idx = self._agg_index(aggregate)
        try:
            i = self.key_positions[group]
        except KeyError:
            raise RuntimePhaseError(f"group {group!r} not in answer") from None
        return GroupEstimate(
            self.values[idx][i].item(),
            self.variances[idx][i].item(),
            self.exact[idx][i].item(),
        )

    def value(self, group: GroupKey, aggregate: str | None = None) -> float:
        """The estimated value for one group."""
        return self.estimate(group, aggregate).value

    def confidence_interval(
        self, group: GroupKey, aggregate: str | None = None, level: float = 0.95
    ) -> tuple[float, float]:
        """Confidence interval for one group's estimate."""
        return self.estimate(group, aggregate).confidence_interval(level)

    def exact_groups(self) -> set[GroupKey]:
        """Groups whose values are exact (from small group tables)."""
        every = np.logical_and.reduce(self.exact, initial=True)
        return {key for key, exact in zip(self.keys, every.tolist()) if exact}
