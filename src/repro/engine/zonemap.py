"""Chunk summaries and data skipping (zone maps).

The paper's cost model says a query should cost what the rows it
*touches* cost (§4.2.2) — yet a WHERE mask is normally built by scanning
every row of every selected piece, even when the predicate provably
matches nothing in most of the table.  This module adds the missing
layer: a per-chunk summary ("zone map") of every stored column, aligned
with the deterministic :func:`~repro.engine.parallel.chunk_ranges`
layout, that lets the executor decide *per chunk* whether a predicate

* can match no row (**skip** the chunk — its mask stretch is hard
  ``False``),
* must match every row (**accept** the chunk — its mask stretch is set
  ``True`` without reading a value), or
* cannot be decided (**scan** the chunk with
  :meth:`~repro.engine.expressions.Predicate.evaluate_range`).

Summary layout
--------------
Per chunk ``[start, stop)`` of a column:

* numeric columns: ``(min, max, zero_count)`` over the raw stored
  values;
* dictionary (string) columns: the frozenset of distinct codes present,
  capped at :data:`ZONE_MAP_DISTINCT_CUTOFF` (``None`` beyond the cap —
  "too varied to summarise");
* bitmask vectors: the bitwise OR of the chunk's per-row mask words,
  which proves the §4.2.2 de-duplication filter ``bitmask & m = 0``
  holds for the whole chunk whenever the OR is disjoint from ``m``.

Summaries are built lazily on first use with
:func:`~repro.engine.parallel.map_row_chunks` over the fixed chunk
layout and cached in the cross-query
:class:`~repro.engine.cache.ExecutionCache` keyed on the column /
bitmask-vector *identity* plus the ``chunk_rows`` layout.  Identity
anchoring is what makes invalidation free: every mutation path in the
engine replaces tables (and therefore columns and bitmask vectors)
wholesale — ``append_rows``, small-group table replacement,
``drop_table`` — and the cache drops entries whose anchor object died or
changed identity.  Lint rule RL008 statically enforces that nothing
mutates the summarised arrays in place behind the cache's back.

Why answers are unchanged
-------------------------
Verdicts are conservative three-valued proofs.  A chunk is skipped only
when *no* row can match and accepted only when *every* row must match;
anything unprovable (including chunks whose min/max are NaN) is scanned
with ``evaluate_range``, whose contract is strict value equality with
``evaluate(table)[start:stop]``.  The assembled mask is therefore equal
element-for-element to the full evaluation at any ``chunk_rows`` — data
skipping is a pure cost knob.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.engine.cache import MISS, get_cache
from repro.engine.column import Column, ColumnKind
from repro.engine.expressions import (
    And,
    Between,
    BitmaskDisjoint,
    Compare,
    CompareOp,
    Equals,
    InSet,
    Not,
    Or,
    Predicate,
)
from repro.engine.parallel import (
    ExecutionOptions,
    chunk_ranges,
    map_row_chunks,
    resolve_options,
)
from repro.engine.table import Table
from repro.obs.registry import get_registry

#: Chunk verdicts: conjunction is ``min`` (ALL_FALSE dominates), disjunction
#: is ``max`` (ALL_TRUE dominates), negation is arithmetic ``-`` (UNKNOWN is
#: a fixed point).
VERDICT_ALL_FALSE = -1
VERDICT_UNKNOWN = 0
VERDICT_ALL_TRUE = 1

#: Distinct-code sets larger than this are not stored (summary cost would
#: approach the scan it is meant to avoid); such chunks always scan.
ZONE_MAP_DISTINCT_CUTOFF = 64


@dataclass(frozen=True)
class ColumnZoneMap:
    """Per-chunk summaries of one column under one chunk layout.

    ``summaries[i]`` is :meth:`Column.range_summary` of ``ranges[i]`` —
    ``(min, max, zero_count)`` for numeric columns, ``(code_set,
    null_count)`` for dictionary columns.
    """

    ranges: tuple[tuple[int, int], ...]
    summaries: tuple[tuple, ...]
    is_string: bool

    @property
    def n_chunks(self) -> int:
        return len(self.ranges)


def _build_column_zone_map(
    col: Column, options: ExecutionOptions
) -> ColumnZoneMap:
    ranges = tuple(chunk_ranges(len(col), options.chunk_rows))
    summaries = tuple(
        map_row_chunks(
            lambda start, stop: col.range_summary(
                start, stop, ZONE_MAP_DISTINCT_CUTOFF
            ),
            len(col),
            options,
        )
    )
    # Rows whose values were read to build summaries: the cost a first
    # read pays after an append replaced the column.
    get_registry().incr("ingest.rows_recomputed", len(col))
    return ColumnZoneMap(
        ranges=ranges,
        summaries=summaries,
        is_string=col.kind is ColumnKind.STRING,
    )


def column_zone_map(col: Column, options: ExecutionOptions) -> ColumnZoneMap:
    """The (cached) zone map of ``col`` for ``options.chunk_rows``.

    Cached under kind ``"zone_map"`` anchored on the column's identity —
    replaced columns (every mutation path replaces them) can never serve
    stale summaries.
    """
    cache = get_cache()
    cached = cache.get("zone_map", (col,), extra=options.chunk_rows)
    if cached is not MISS:
        return cached
    zone_map = _build_column_zone_map(col, options)
    cache.put("zone_map", (col,), zone_map, extra=options.chunk_rows)
    return zone_map


def bitmask_chunk_ors(vector, options: ExecutionOptions) -> np.ndarray:
    """Per-chunk OR of a bitmask vector's words, shape ``(n_chunks, n_words)``.

    Cached under kind ``"zone_map_bitmask"`` anchored on the vector's
    identity (sample tables are rebuilt — new vector objects — on every
    replacement path).
    """
    cache = get_cache()
    cached = cache.get("zone_map_bitmask", (vector,), extra=options.chunk_rows)
    if cached is not MISS:
        return cached
    rows = map_row_chunks(
        lambda start, stop: vector.range_or(start, stop),
        len(vector),
        options,
    )
    if rows:
        ors = np.stack(rows)
    else:
        ors = np.zeros((0, vector.words.shape[1]), dtype=np.uint64)
    get_registry().incr("ingest.rows_recomputed", len(vector))
    cache.put("zone_map_bitmask", (vector,), ors, extra=options.chunk_rows)
    return ors


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------
def _is_nan(value) -> bool:
    try:
        return math.isnan(value)
    except TypeError:
        return False


def _is_real_number(value) -> bool:
    """Whether ``value`` can soundly enter min/max bound arithmetic.

    Anything else (strings, None, ...) stays UNKNOWN so the evaluation
    path raises its usual typed error instead of a proof going wrong.
    """
    return isinstance(value, (bool, int, float, np.integer, np.floating))


def _numeric_compare_verdict(
    op: CompareOp,
    mn: float,
    mx: float,
    zeros: int,
    chunk_rows: int,
    value,
) -> int:
    """Verdict of ``column <op> value`` for one numeric chunk.

    Proofs are positive only: a chunk whose min/max are NaN satisfies no
    bound test and stays UNKNOWN; a NaN literal matches nothing
    (``x <op> NaN`` is elementwise False) except ``<>``, which matches
    everything.
    """
    if _is_nan(value):
        return (
            VERDICT_ALL_TRUE if op is CompareOp.NE else VERDICT_ALL_FALSE
        )
    if op is CompareOp.EQ:
        if value < mn or value > mx:
            return VERDICT_ALL_FALSE
        if value == 0 and zeros == 0:
            return VERDICT_ALL_FALSE
        if value == 0 and zeros == chunk_rows:
            return VERDICT_ALL_TRUE
        if mn == mx == value:
            return VERDICT_ALL_TRUE
        return VERDICT_UNKNOWN
    if op is CompareOp.NE:
        inverse = _numeric_compare_verdict(
            CompareOp.EQ, mn, mx, zeros, chunk_rows, value
        )
        return -inverse
    if op is CompareOp.LT:
        if mx < value:
            return VERDICT_ALL_TRUE
        if mn >= value:
            return VERDICT_ALL_FALSE
    elif op is CompareOp.LE:
        if mx <= value:
            return VERDICT_ALL_TRUE
        if mn > value:
            return VERDICT_ALL_FALSE
    elif op is CompareOp.GT:
        if mn > value:
            return VERDICT_ALL_TRUE
        if mx <= value:
            return VERDICT_ALL_FALSE
    elif op is CompareOp.GE:
        if mn >= value:
            return VERDICT_ALL_TRUE
        if mx < value:
            return VERDICT_ALL_FALSE
    return VERDICT_UNKNOWN


def _string_equals_verdicts(
    zone_map: ColumnZoneMap, code: int
) -> np.ndarray:
    out = np.zeros(zone_map.n_chunks, dtype=np.int8)
    if code < 0:  # value absent from the dictionary: matches nowhere
        out[:] = VERDICT_ALL_FALSE
        return out
    for i, (code_set, _nulls) in enumerate(zone_map.summaries):
        if code_set is None:
            continue
        if code not in code_set:
            out[i] = VERDICT_ALL_FALSE
        elif len(code_set) == 1:
            out[i] = VERDICT_ALL_TRUE
    return out


def _numeric_leaf_verdicts(zone_map: ColumnZoneMap, op: CompareOp, value) -> np.ndarray:
    out = np.zeros(zone_map.n_chunks, dtype=np.int8)
    if not _is_real_number(value):
        return out  # evaluation will raise the proper typed error
    for i, ((start, stop), (mn, mx, zeros)) in enumerate(
        zip(zone_map.ranges, zone_map.summaries)
    ):
        if _is_nan(mn) or _is_nan(mx):
            continue  # chunk holds NaN: no bound proof applies
        out[i] = _numeric_compare_verdict(
            op, mn, mx, zeros, stop - start, value
        )
    return out


def _equals_verdicts(table: Table, pred: Equals, options) -> np.ndarray:
    col = table.column(pred.column)
    zone_map = column_zone_map(col, options)
    if zone_map.is_string:
        return _string_equals_verdicts(zone_map, col.encode_value(pred.value))
    return _numeric_leaf_verdicts(zone_map, CompareOp.EQ, pred.value)


def _compare_verdicts(table: Table, pred: Compare, options) -> np.ndarray:
    col = table.column(pred.column)
    zone_map = column_zone_map(col, options)
    if zone_map.is_string:
        # Only =/<> are defined on codes; ordering comparisons raise at
        # evaluation time, so leave their chunks UNKNOWN (scanned).
        if pred.op is CompareOp.EQ:
            return _string_equals_verdicts(
                zone_map, col.encode_value(pred.value)
            )
        if pred.op is CompareOp.NE:
            return -_string_equals_verdicts(
                zone_map, col.encode_value(pred.value)
            )
        return np.zeros(zone_map.n_chunks, dtype=np.int8)
    return _numeric_leaf_verdicts(zone_map, pred.op, pred.value)


def _between_verdicts(table: Table, pred: Between, options) -> np.ndarray:
    col = table.column(pred.column)
    zone_map = column_zone_map(col, options)
    if zone_map.is_string:
        return np.zeros(zone_map.n_chunks, dtype=np.int8)  # raises on scan
    out = np.zeros(zone_map.n_chunks, dtype=np.int8)
    low, high = pred.low, pred.high
    if not (_is_real_number(low) and _is_real_number(high)):
        return out  # evaluation raises on non-numeric bounds
    if _is_nan(low) or _is_nan(high):
        out[:] = VERDICT_ALL_FALSE  # x >= NaN / x <= NaN is always False
        return out
    for i, (mn, mx, _zeros) in enumerate(zone_map.summaries):
        if _is_nan(mn) or _is_nan(mx):
            continue
        if mx < low or mn > high:
            out[i] = VERDICT_ALL_FALSE
        elif mn >= low and mx <= high:
            out[i] = VERDICT_ALL_TRUE
    return out


def _inset_verdicts(table: Table, pred: InSet, options) -> np.ndarray:
    col = table.column(pred.column)
    zone_map = column_zone_map(col, options)
    out = np.zeros(zone_map.n_chunks, dtype=np.int8)
    if zone_map.is_string:
        targets = {
            code
            for code in (col.encode_value(v) for v in pred.values)
            if code >= 0
        }
        if not targets:
            out[:] = VERDICT_ALL_FALSE
            return out
        for i, (code_set, _nulls) in enumerate(zone_map.summaries):
            if code_set is None:
                continue
            if not (code_set & targets):
                out[i] = VERDICT_ALL_FALSE
            elif code_set <= targets:
                out[i] = VERDICT_ALL_TRUE
        return out
    targets = sorted(
        v for v in (col.encode_value(v) for v in pred.values) if not _is_nan(v)
    )
    if not targets:
        out[:] = VERDICT_ALL_FALSE
        return out
    targets_arr = np.asarray(targets, dtype=np.float64)
    for i, (mn, mx, _zeros) in enumerate(zone_map.summaries):
        if _is_nan(mn) or _is_nan(mx):
            continue
        # Any target inside [mn, mx]?  Binary search over the sorted
        # targets keeps the check O(log k) per chunk.
        idx = int(np.searchsorted(targets_arr, mn, side="left"))
        in_range = idx < targets_arr.size and targets_arr[idx] <= mx
        if not in_range:
            out[i] = VERDICT_ALL_FALSE
        elif mn == mx:
            out[i] = VERDICT_ALL_TRUE  # the single value is a target
    return out


def _bitmask_verdicts(
    table: Table, pred: BitmaskDisjoint, options, n_chunks: int
) -> np.ndarray:
    out = np.zeros(n_chunks, dtype=np.int8)
    if table.bitmask is None:
        if pred.mask.is_zero():
            out[:] = VERDICT_ALL_TRUE
        # Non-zero mask on a bitmask-less table raises at evaluation
        # time; UNKNOWN keeps that error path intact.
        return out
    ors = bitmask_chunk_ors(table.bitmask, options)
    words = min(ors.shape[1], len(pred.mask.words))
    overlap = ors[:, :words] & pred.mask.words[np.newaxis, :words]
    # The OR can prove "every row disjoint" (ALL_TRUE) but never "every
    # row overlapping" — a set chunk bit says *some* row has it.
    out[~overlap.any(axis=1)] = VERDICT_ALL_TRUE
    return out


def chunk_verdicts(
    table: Table,
    predicate: Predicate,
    options: ExecutionOptions | None = None,
) -> np.ndarray:
    """Three-valued per-chunk verdicts of ``predicate`` over ``table``.

    Returns an ``int8`` array aligned with
    ``chunk_ranges(table.n_rows, options.chunk_rows)``:
    :data:`VERDICT_ALL_FALSE` where no row can match,
    :data:`VERDICT_ALL_TRUE` where every row must match, and
    :data:`VERDICT_UNKNOWN` where the chunk needs scanning.  Unknown
    predicate types summarise to UNKNOWN everywhere (always correct,
    never fast).
    """
    options = resolve_options(options)
    n_chunks = len(chunk_ranges(table.n_rows, options.chunk_rows))
    return _verdicts(table, predicate, options, n_chunks)


def _verdicts(
    table: Table, pred: Predicate, options, n_chunks: int
) -> np.ndarray:
    if n_chunks == 0:
        return np.zeros(0, dtype=np.int8)
    if isinstance(pred, And):
        out = np.full(n_chunks, VERDICT_ALL_TRUE, dtype=np.int8)
        for operand in pred.operands:
            np.minimum(
                out, _verdicts(table, operand, options, n_chunks), out=out
            )
            if not (out > VERDICT_ALL_FALSE).any():
                break  # every chunk already refuted
        return out
    if isinstance(pred, Or):
        out = np.full(n_chunks, VERDICT_ALL_FALSE, dtype=np.int8)
        for operand in pred.operands:
            np.maximum(
                out, _verdicts(table, operand, options, n_chunks), out=out
            )
            if not (out < VERDICT_ALL_TRUE).any():
                break  # every chunk already proven
        return out
    if isinstance(pred, Not):
        return -_verdicts(table, pred.operand, options, n_chunks)
    if isinstance(pred, Equals):
        return _equals_verdicts(table, pred, options)
    if isinstance(pred, Compare):
        return _compare_verdicts(table, pred, options)
    if isinstance(pred, Between):
        return _between_verdicts(table, pred, options)
    if isinstance(pred, InSet):
        return _inset_verdicts(table, pred, options)
    if isinstance(pred, BitmaskDisjoint):
        return _bitmask_verdicts(table, pred, options, n_chunks)
    return np.zeros(n_chunks, dtype=np.int8)


def predicate_always_false(
    table: Table,
    predicate: Predicate,
    options: ExecutionOptions | None = None,
) -> bool:
    """Whether the summaries prove ``predicate`` matches no row at all.

    This is the piece-pruning test of the §4.2.2 UNION ALL plan: a piece
    whose every chunk is refuted contributes an empty partial result, so
    the combiner can skip executing it entirely without changing the
    combined answer.
    """
    if table.n_rows == 0:
        return False
    verdicts = chunk_verdicts(table, predicate, options)
    return verdicts.size > 0 and bool(
        (verdicts == VERDICT_ALL_FALSE).all()
    )


# ----------------------------------------------------------------------
# Skip accounting
# ----------------------------------------------------------------------
@dataclass
class PieceSkipStats:
    """Per-piece (or per-exact-scan) data-skipping outcome.

    ``rows_touched`` counts the rows whose stored values were actually
    read to build the WHERE mask: rows of scanned (UNKNOWN) chunks, all
    rows when skipping is off or no WHERE applies, zero when the mask
    came from the predicate-mask cache or the whole piece was pruned.
    """

    description: str
    rows_total: int = 0
    n_chunks: int = 0
    chunks_skipped: int = 0
    chunks_accepted: int = 0
    chunks_scanned: int = 0
    rows_touched: int = 0
    pruned: bool = False
    mask_cached: bool = False
    #: WHERE mask assembled from a dominating provenance sketch — only
    #: the sketched chunks were evaluated (see repro.engine.selection).
    sketch_hit: bool = False

    def observe_chunks(
        self,
        n_chunks: int,
        skipped: int,
        accepted: int,
        scanned: int,
        rows_touched: int,
    ) -> None:
        """Record one zone-map mask assembly."""
        self.n_chunks = n_chunks
        self.chunks_skipped = skipped
        self.chunks_accepted = accepted
        self.chunks_scanned = scanned
        self.rows_touched = rows_touched

    def observe_full_scan(self) -> None:
        """Record a mask built without skipping (every row read)."""
        self.rows_touched = self.rows_total


@dataclass
class SkipReport:
    """EXPLAIN-style summary of data skipping for one answered query."""

    enabled: bool
    pieces: list[PieceSkipStats] = field(default_factory=list)

    @property
    def rows_total(self) -> int:
        """Rows stored across all pieces (the rows_scanned cost model)."""
        return sum(p.rows_total for p in self.pieces)

    @property
    def rows_touched(self) -> int:
        """Rows actually read while building WHERE masks."""
        return sum(p.rows_touched for p in self.pieces)

    @property
    def chunks_skipped(self) -> int:
        return sum(p.chunks_skipped for p in self.pieces)

    @property
    def chunks_scanned(self) -> int:
        return sum(p.chunks_scanned for p in self.pieces)

    @property
    def pieces_pruned(self) -> int:
        return sum(1 for p in self.pieces if p.pruned)

    @property
    def sketch_hits(self) -> int:
        """Pieces whose WHERE mask came from a provenance sketch."""
        return sum(1 for p in self.pieces if p.sketch_hit)

    def to_text(self) -> str:
        """Human-readable per-piece rendering (the CLI ``--explain`` body)."""
        state = "on" if self.enabled else "off"
        lines = [
            f"data skipping: {state} — touched {self.rows_touched} of "
            f"{self.rows_total} rows"
        ]
        for piece in self.pieces:
            if piece.pruned:
                lines.append(
                    f"  - {piece.description}: pruned "
                    f"({piece.rows_total} rows never scanned)"
                )
                continue
            if piece.mask_cached:
                lines.append(
                    f"  - {piece.description}: WHERE mask cached "
                    f"(0 rows touched)"
                )
                continue
            if piece.sketch_hit:
                lines.append(
                    f"  - {piece.description}: provenance sketch hit — "
                    f"{piece.chunks_scanned} of {piece.n_chunks} chunks "
                    f"scanned, {piece.rows_touched} rows touched"
                )
                continue
            if piece.n_chunks == 0:
                lines.append(
                    f"  - {piece.description}: full scan, "
                    f"{piece.rows_touched} rows touched"
                )
                continue
            lines.append(
                f"  - {piece.description}: {piece.chunks_scanned} of "
                f"{piece.n_chunks} chunks scanned "
                f"({piece.chunks_skipped} skipped, "
                f"{piece.chunks_accepted} accepted whole), "
                f"{piece.rows_touched} rows touched"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Mask assembly
# ----------------------------------------------------------------------
def evaluate_predicate(
    table: Table,
    predicate: Predicate,
    options: ExecutionOptions | None = None,
    stats: PieceSkipStats | None = None,
) -> np.ndarray:
    """Evaluate a WHERE predicate with zone-map data skipping.

    Value-identical to ``predicate.evaluate(table)``: refuted chunks are
    hard ``False``, accepted chunks hard ``True``, and undecided chunks
    are evaluated with :meth:`Predicate.evaluate_range` (strict slice
    equality).  ``stats`` (when given) records the chunk outcome.
    """
    options = resolve_options(options)
    ranges = chunk_ranges(table.n_rows, options.chunk_rows)
    if stats is not None:
        stats.rows_total = table.n_rows
    if not ranges:
        mask = predicate.evaluate(table)
        if stats is not None:
            stats.observe_full_scan()
        return mask
    verdicts = _verdicts(table, predicate, options, len(ranges))
    mask = np.zeros(table.n_rows, dtype=bool)
    skipped = accepted = scanned = touched = 0
    for (start, stop), verdict in zip(ranges, verdicts):
        if verdict == VERDICT_ALL_FALSE:
            skipped += 1
        elif verdict == VERDICT_ALL_TRUE:
            mask[start:stop] = True
            accepted += 1
        else:
            mask[start:stop] = predicate.evaluate_range(table, start, stop)
            scanned += 1
            touched += stop - start
    if stats is not None:
        stats.observe_chunks(len(ranges), skipped, accepted, scanned, touched)
    # Process-wide aggregation (write-only — RL009): chunk verdicts and
    # rows read across every mask assembly, for ``repro stats``.
    registry = get_registry()
    registry.incr("zonemap.chunks_skipped", skipped)
    registry.incr("zonemap.chunks_accepted", accepted)
    registry.incr("zonemap.chunks_scanned", scanned)
    registry.incr("zonemap.rows_touched", touched)
    return mask


__all__ = [
    "VERDICT_ALL_FALSE",
    "VERDICT_ALL_TRUE",
    "VERDICT_UNKNOWN",
    "ZONE_MAP_DISTINCT_CUTOFF",
    "ColumnZoneMap",
    "PieceSkipStats",
    "SkipReport",
    "bitmask_chunk_ors",
    "chunk_verdicts",
    "column_zone_map",
    "evaluate_predicate",
    "predicate_always_false",
]
