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

import numpy as np

from repro.core.answer import ApproxAnswer, GroupKey
from repro.core.rewriter import SamplePiece
from repro.engine.executor import GroupedResult, aggregate_table
from repro.engine.deadline import Deadline
from repro.engine.expressions import AggFunc, AggregateSpec, Query
from repro.errors import RuntimePhaseError
from repro.obs.registry import get_registry
from repro.obs.trace import NULL_SPAN, Span

#: One per-group array per output aggregate.
Arrays = tuple[np.ndarray, ...]


#: Per output aggregate, ``(component, count component)``: a COUNT or
#: SUM output is its component summed across strata (count ``None``); an
#: AVG output divides its SUM component by the shared COUNT component.
Outputs = list[tuple[int, int | None]]


def _plan_components(
    aggregates: tuple[AggregateSpec, ...],
) -> tuple[list[AggregateSpec], Outputs]:
    """Decompose the query's aggregates into additive components.

    COUNT/SUM pass through; each AVG contributes a SUM component and (one
    shared) COUNT component.
    """
    components: list[AggregateSpec] = []
    outputs: Outputs = []
    shared_count: int | None = None
    for agg in aggregates:
        if agg.func in (AggFunc.COUNT, AggFunc.SUM):
            if agg.func is AggFunc.COUNT and shared_count is None:
                shared_count = len(components)
            outputs.append((len(components), None))
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
            outputs.append((sum_component, shared_count))
            continue
        raise RuntimePhaseError(
            f"approximate answering supports COUNT, SUM, and AVG, not "
            f"{agg.func.value} (run the exact executor instead)"
        )
    return components, outputs


def execute_pieces(
    pieces: list[SamplePiece],
    technique: str,
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
    a ``combine`` child.  Spans are write-only in this layer, so
    answers are byte-identical with profiling on or off
    (``tests/test_obs.py::TestProfileDeterminism``).

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

    # The queries that actually run carry the additive components — this
    # is also what the answer's rewritten SQL shows.
    exec_pieces: list[tuple[SamplePiece, Query]] = []
    for piece in pieces:
        exec_query = Query(
            piece.query.table,
            tuple(components),
            piece.query.group_by,
            piece.query.where,
        )
        exec_pieces.append((piece, exec_query))

    span.annotate(pieces=len(exec_pieces))
    piece_results: list[GroupedResult] = []
    for piece, exec_query in exec_pieces:
        description = piece.description or piece.table.name
        if deadline is not None:
            deadline.check(f"piece {description}")
        with span.child(f"piece:{description}") as piece_span:
            piece_results.append(
                aggregate_table(
                    piece.table,
                    exec_query,
                    weights=piece.weights,
                    scale=piece.scale,
                    collect_variance_stats=not piece.zero_variance,
                    variance_weights=piece.variance_weights,
                    span=piece_span,
                )
            )
    get_registry().incr("combiner.pieces_executed", len(exec_pieces))
    if deadline is not None:
        deadline.check("combine")
    combine_started = time.perf_counter()
    keys, values, variances, exact = _merge(pieces, piece_results, outputs)
    combine_span = span.child("combine")
    combine_span.seconds = time.perf_counter() - combine_started
    combine_span.annotate(groups=len(keys))

    base_query = pieces[0].query
    answer = ApproxAnswer(
        group_columns=base_query.group_by,
        aggregate_names=tuple(a.name for a in aggregates),
        keys=keys,
        values=values,
        variances=variances,
        exact=exact,
        technique=technique,
        rows_scanned=sum(piece.table.n_rows for piece in pieces),
        pieces=tuple(p.description or p.table.name for p in pieces),
        executed=tuple(exec_pieces),
    )
    # One position past the LIMIT: the best dropped group, if any.
    limit = base_query.limit
    positions = answer.clause_positions(
        base_query, None if limit is None else limit + 1
    )
    if positions is None:
        return answer
    first = base_query.order_by[:1]
    if limit is not None and len(positions) > limit and first:
        # Ordered by an estimate, the top-k cut is statistically separated
        # when the last kept group's interval misses the best dropped one's.
        name, descending = first[0]
        if name in answer.aggregate_names:
            lows, highs = answer.intervals()[answer.aggregate_names.index(name)]
            kept, dropped = positions[limit - 1], positions[limit]
            answer.top_k_confident = bool(
                lows[kept] > highs[dropped]
                if descending
                else highs[kept] < lows[dropped]
            )
    return answer.take(positions[:limit])


def _merge(
    pieces: list[SamplePiece],
    results: list[GroupedResult],
    outputs: Outputs,
) -> tuple[list[GroupKey], Arrays, Arrays, Arrays]:
    """Sum the pieces' partials per group: §4.2.2's UNION ALL, taken literally.

    The partials are concatenated in piece order and a first-seen key
    index gives every group its id, so ``numpy.bincount`` adds each
    component in the order a per-group fold over the pieces would.  A
    piece without variance statistics adds ``+0.0``, which leaves every
    sum's bits alone.  Returns the keys (first-seen order) and, per
    output aggregate, the value, variance and exact-flag arrays.
    """
    names = results[0].aggregate_names
    index: dict[GroupKey, int] = {}
    ids: list[int] = []
    partials = []
    for piece, result in zip(pieces, results):
        ids.extend(index.setdefault(key, len(index)) for key in result.keys)
        zeros = np.zeros(result.n_groups)
        partials.append(
            np.column_stack(
                [
                    *result.values,
                    *(result.sum_squares.get(name, zeros) for name in names),
                    *(result.sum_cross.get(name, zeros) for name in names),
                    zeros if piece.marks_exact else np.ones(result.n_groups),
                ]
            )
        )
    group_ids = np.array(ids, dtype=np.intp)
    totals = [
        np.bincount(group_ids, weights=column, minlength=len(index))
        for column in np.concatenate(partials).T
    ]
    n = len(names)
    value, square, cross = totals[:n], totals[n : 2 * n], totals[2 * n : 3 * n]
    all_exact = totals[-1] == 0.0  # no inexact contribution
    values, variances, exact = [], [], []
    for component, count_component in outputs:
        if count_component is None:
            values.append(value[component])
            variances.append(square[component])
            exact.append(all_exact)
            continue
        sums, counts = value[component], value[count_component]
        var_sum, var_count = square[component], square[count_component]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = sums / counts
            cov = cross[component]
            delta = (
                var_sum - 2.0 * ratio * cov + ratio * ratio * var_count
            ) / (counts * counts)
        counted = counts > 0
        values.append(np.where(counted, ratio, np.nan))
        # ``max(0.0, v)``: NaN and negative round-off read 0.
        variances.append(np.where(counted & (delta > 0.0), delta, 0.0))
        exact.append(all_exact & counted)
    return list(index), tuple(values), tuple(variances), tuple(exact)
