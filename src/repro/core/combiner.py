"""Combine partial results from rewritten query pieces.

Each :class:`~repro.core.rewriter.SamplePiece` is executed against its
sample table; the per-group values are summed across pieces (strata are
disjoint thanks to the bitmask filters, so the estimates add), as do the
per-group variances (independent strata).  A group is exact when every
piece contributing to it is a zero-variance (100%-sampled) stratum —
the paper's "answers for groups that result from querying small group
tables are marked as being exact".

COUNT and SUM add across strata directly.  AVG does not, so AVG
aggregates are decomposed into a SUM and a shared COUNT component — the
actual rewrite executed against the sample tables — and recombined as a
ratio estimator, with the delta-method variance

    Var(S/C) ≈ (Var(S) − 2·R·Cov(S, C) + R²·Var(C)) / C²,   R = S/C,

where the component variances and the covariance accumulate per stratum
(``Σ vw·x²``, ``Σ vw``, and ``Σ vw·x`` from the executor's variance
statistics).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.answer import ApproxAnswer, GroupEstimate, GroupKey
from repro.core.rewriter import SamplePiece, pieces_to_sql
from repro.engine.executor import (
    GroupedResult,
    aggregate_table,
    order_limit_groups,
)
from repro.engine.deadline import Deadline
from repro.engine.expressions import AggFunc, AggregateSpec, Query
from repro.engine.parallel import ExecutionOptions, resolve_options
from repro.engine.zonemap import (
    PieceSkipStats,
    SkipReport,
    predicate_always_false,
)
from repro.errors import RuntimePhaseError
from repro.obs.registry import get_registry
from repro.obs.trace import NULL_SPAN, Span

def _order_and_limit(
    groups: dict[GroupKey, tuple[GroupEstimate, ...]],
    query: Query,
    agg_names: tuple[str, ...],
) -> tuple[dict[GroupKey, tuple[GroupEstimate, ...]], bool | None]:
    """Apply the query's ORDER BY/LIMIT to the combined estimates.

    When the query orders by an estimated aggregate and a LIMIT actually
    drops groups, also report whether the cut is statistically separated:
    the last kept group's confidence interval must not overlap the best
    dropped group's.
    """
    values = {g: tuple(e.value for e in ests) for g, ests in groups.items()}
    ordered_all = order_limit_groups(
        values, query.group_by, agg_names, query.order_by, None
    )
    kept = (
        ordered_all[: query.limit] if query.limit is not None else ordered_all
    )
    confident: bool | None = None
    if (
        query.limit is not None
        and len(ordered_all) > len(kept)
        and query.order_by
        and query.order_by[0][0] in agg_names
    ):
        agg_index = agg_names.index(query.order_by[0][0])
        descending = query.order_by[0][1]
        last_kept = groups[kept[-1]][agg_index]
        first_dropped = groups[ordered_all[len(kept)]][agg_index]
        kept_lo, kept_hi = last_kept.confidence_interval()
        drop_lo, drop_hi = first_dropped.confidence_interval()
        confident = kept_lo > drop_hi if descending else kept_hi < drop_lo
    return {g: groups[g] for g in kept}, confident


@dataclass(frozen=True)
class _DirectOutput:
    """Output aggregate computed by summing one component across strata."""

    name: str
    component: int


@dataclass(frozen=True)
class _RatioOutput:
    """AVG output: ratio of a SUM component to the shared COUNT component."""

    name: str
    sum_component: int
    count_component: int


def _plan_components(
    aggregates: tuple[AggregateSpec, ...],
) -> tuple[list[AggregateSpec], list[_DirectOutput | _RatioOutput]]:
    """Decompose the query's aggregates into additive components.

    COUNT/SUM pass through; each AVG contributes a SUM component and (one
    shared) COUNT component.
    """
    components: list[AggregateSpec] = []
    outputs: list[_DirectOutput | _RatioOutput] = []
    shared_count: int | None = None
    for agg in aggregates:
        if agg.func in (AggFunc.COUNT, AggFunc.SUM):
            if agg.func is AggFunc.COUNT and shared_count is None:
                shared_count = len(components)
            outputs.append(_DirectOutput(agg.name, len(components)))
            components.append(agg)
            continue
        if agg.func is AggFunc.AVG:
            sum_component = len(components)
            components.append(
                AggregateSpec(
                    AggFunc.SUM, agg.column, alias=f"avg_sum_{agg.name}"
                )
            )
            if shared_count is None:
                shared_count = len(components)
                components.append(
                    AggregateSpec(AggFunc.COUNT, alias="avg_count")
                )
            outputs.append(
                _RatioOutput(agg.name, sum_component, shared_count)
            )
            continue
        raise RuntimePhaseError(
            f"approximate answering supports COUNT, SUM, and AVG, not "
            f"{agg.func.value} (run the exact executor instead)"
        )
    return components, outputs


def execute_pieces(
    pieces: list[SamplePiece],
    technique: str,
    emit_sql: bool = True,
    options: ExecutionOptions | None = None,
    span: Span = NULL_SPAN,
    deadline: Deadline | None = None,
) -> ApproxAnswer:
    """Execute rewritten pieces and combine them into an answer.

    The pieces are independent strata (the paper's UNION ALL branches),
    each a scan of a small sample table, so they run in one serial loop
    on the calling thread; partial per-group results are folded in piece
    order, so the floating-point accumulation — and the answer — is
    deterministic.

    ``span`` (when profiling) gains one ``piece:*`` child per piece plus
    a ``combine`` child; the span tree rides on the answer as
    ``ApproxAnswer.trace``.  Spans are write-only in this layer (RL009),
    so answers are byte-identical with profiling on or off.

    ``deadline`` (if any) is enforced at piece granularity: checked
    before every piece and before the combine.  An expired deadline
    raises :class:`~repro.errors.DeadlineExceeded`; there are no partial
    answers, so determinism guarantees are unaffected.
    """
    if not pieces:
        raise RuntimePhaseError("rewritten query has no pieces")
    aggregates = pieces[0].query.aggregates
    for piece in pieces[1:]:
        if tuple(a.name for a in piece.query.aggregates) != tuple(
            a.name for a in aggregates
        ):
            raise RuntimePhaseError("pieces compute different aggregates")
    components, outputs = _plan_components(aggregates)
    component_names = tuple(c.name for c in components)

    # The queries that actually run carry the additive components — this
    # is also what the emitted rewritten SQL shows.
    exec_pieces: list[tuple[SamplePiece, Query]] = []
    for piece in pieces:
        exec_query = Query(
            piece.query.table,
            tuple(components),
            piece.query.group_by,
            piece.query.where,
        )
        exec_pieces.append((piece, exec_query))

    values: dict[GroupKey, list[float]] = {}
    variances: dict[GroupKey, list[float]] = {}
    crosses: dict[GroupKey, dict[int, float]] = {}
    all_exact: dict[GroupKey, bool] = {}
    rows_scanned = 0
    n_components = len(components)
    ratio_sum_components = [
        o.sum_component for o in outputs if isinstance(o, _RatioOutput)
    ]

    options = resolve_options(options)

    # Piece pruning: a piece whose every chunk refutes the WHERE would
    # aggregate an all-false mask into zero groups — substitute that
    # empty partial outright and never scan the piece.
    # ``rows_scanned`` still counts the piece's rows (the §4.2.2 cost
    # model charges for what is *stored* in the plan, and the answer
    # must be byte-identical with skipping off); the saved work shows up
    # as ``rows_touched`` in the skip report instead.
    skip_report = SkipReport(enabled=options.data_skipping)
    span.annotate(pieces=len(exec_pieces))
    piece_results: list[GroupedResult] = []
    executed = 0
    for piece, exec_query in exec_pieces:
        description = piece.description or piece.table.name
        if deadline is not None:
            deadline.check(f"piece {description}")
        stats = PieceSkipStats(
            description=description,
            rows_total=piece.table.n_rows,
        )
        skip_report.pieces.append(stats)
        with span.child(f"piece:{description}") as piece_span:
            if (
                options.data_skipping
                and exec_query.where is not None
                and predicate_always_false(
                    piece.table, exec_query.where, options
                )
            ):
                stats.pruned = True
                piece_span.annotate(pruned=True, rows=piece.table.n_rows)
                result = GroupedResult(
                    group_columns=exec_query.group_by,
                    aggregate_names=component_names,
                    rows={},
                )
            else:
                result = aggregate_table(
                    piece.table,
                    exec_query,
                    weights=piece.weights,
                    scale=piece.scale,
                    collect_variance_stats=not piece.zero_variance,
                    variance_weights=piece.variance_weights,
                    options=options,
                    skip_stats=stats,
                    span=piece_span,
                )
                executed += 1
        piece_results.append(result)
    registry = get_registry()
    registry.incr("combiner.pieces_executed", executed)
    registry.incr("combiner.pieces_pruned", len(exec_pieces) - executed)
    if deadline is not None:
        deadline.check("combine")
    combine_started = time.perf_counter()

    # Deterministic combine: fold partials in piece-index order.
    for (piece, exec_query), result in zip(exec_pieces, piece_results):
        rows_scanned += piece.table.n_rows
        for group, row in result.rows.items():
            if group not in values:
                values[group] = [0.0] * n_components
                variances[group] = [0.0] * n_components
                crosses[group] = {c: 0.0 for c in ratio_sum_components}
                all_exact[group] = True
            for i, value in enumerate(row):
                values[group][i] += value
            if not piece.marks_exact:
                all_exact[group] = False
            if piece.zero_variance:
                continue
            for i, name in enumerate(component_names):
                per_group = result.sum_squares.get(name)
                if per_group is not None:
                    variances[group][i] += per_group.get(group, 0.0)
            for c in ratio_sum_components:
                per_group = result.sum_cross.get(component_names[c])
                if per_group is not None:
                    crosses[group][c] += per_group.get(group, 0.0)

    groups: dict[GroupKey, tuple[GroupEstimate, ...]] = {}
    for group in values:  # noqa: B007 - populated below
        estimates = []
        for output in outputs:
            if isinstance(output, _DirectOutput):
                estimates.append(
                    GroupEstimate(
                        value=values[group][output.component],
                        variance=variances[group][output.component],
                        exact=all_exact[group],
                    )
                )
                continue
            total = values[group][output.sum_component]
            count = values[group][output.count_component]
            if count <= 0:
                estimates.append(
                    GroupEstimate(value=float("nan"), variance=0.0)
                )
                continue
            ratio = total / count
            var_sum = variances[group][output.sum_component]
            var_count = variances[group][output.count_component]
            cov = crosses[group][output.sum_component]
            variance = max(
                0.0,
                (var_sum - 2.0 * ratio * cov + ratio * ratio * var_count)
                / (count * count),
            )
            estimates.append(
                GroupEstimate(
                    value=ratio, variance=variance, exact=all_exact[group]
                )
            )
        groups[group] = tuple(estimates)

    combine_span = span.child("combine")
    combine_span.seconds = time.perf_counter() - combine_started
    combine_span.annotate(groups=len(groups))

    agg_names = tuple(a.name for a in aggregates)
    base_query = pieces[0].query
    if base_query.having:
        groups = {
            g: ests
            for g, ests in groups.items()
            if base_query.evaluate_having(tuple(e.value for e in ests))
        }
    top_k_confident: bool | None = None
    if base_query.order_by or base_query.limit is not None:
        groups, top_k_confident = _order_and_limit(
            groups, base_query, agg_names
        )

    return ApproxAnswer(
        group_columns=pieces[0].query.group_by,
        aggregate_names=agg_names,
        groups=groups,
        technique=technique,
        top_k_confident=top_k_confident,
        rows_scanned=rows_scanned,
        skip_report=skip_report,
        trace=None if span is NULL_SPAN else span,
        pieces=tuple(p.description or p.table.name for p in pieces),
        rewritten_sql=(
            pieces_to_sql(
                [
                    SamplePiece(
                        table=piece.table,
                        query=exec_query,
                        scale=piece.scale,
                        description=piece.description,
                    )
                    for piece, exec_query in exec_pieces
                ]
            )
            if emit_sql
            else None
        ),
    )
