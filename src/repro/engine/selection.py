"""Chunk selection: provenance-sketch caching + PS3-style weighted selection.

Two cooperating layers sit between the zone maps and the executor's
chunk-wise WHERE evaluation (see :mod:`repro.engine.zonemap`):

**Provenance sketches** (Liu, "Cost-based Selection of Provenance
Sketches for Data Skipping") — an *exact-equivalent* fast path.  After a
query evaluates, the executor records which chunks actually produced
matching rows (the *realized* chunk-relevance set), keyed by a
normalized query template: the predicate tree with constants extracted,
so ``x BETWEEN 10 AND 20`` and ``x BETWEEN 30 AND 40`` share one
template with different parameters.  On re-execution, a stored sketch
whose parameters *dominate* the new query's (its matching-row set is a
superset — e.g. a wider BETWEEN interval) proves that chunks outside
the sketch contain no matching rows, so the executor scans only the
sketched chunks and skips verdict evaluation entirely.  Answers are
byte-identical to the non-sketch path.

**PS3-style weighted selection** (Rong et al., "Approximate Partition
Selection using Summary Statistics") — an *approximate* fast path,
opt-in via :attr:`ExecutionOptions.chunk_selection`.  Chunks are scored
from the zone-map summaries (predicate-overlap fraction, distinct-code
density, historical sketch hit counts) and a without-replacement
weighted subset is drawn under a rows budget with systematic
probability-proportional-to-size sampling.  The executor then
Horvitz–Thompson-reweights every selected row by ``1 / π(chunk)`` so
SUM/COUNT/AVG estimates stay unbiased and the per-group CI machinery
stays honest.  The draw is a pure function of the summaries, the
history, and ``selection_seed`` — never of worker count — so answers
are byte-identical at any ``max_workers``.

Invalidation discipline
-----------------------
Sketches are anchored on the identities of the predicate's column
objects (the same anchors as the executor's ``predicate_mask`` cache):
every lookup re-validates the anchors through weak references, and the
store subscribes to :func:`repro.engine.cache.add_invalidation_listener`
so the explicit paths (``append_rows`` / ``insert_rows`` /
``drop_table``) drop affected sketches the moment the execution cache
does.  A stale sketch is therefore never served — the discipline lint
rules RL001/RL013 enforce for the execution cache extends to this
store (RL004 checks the anchor arguments at the call sites).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.engine import zonemap
from repro.engine.cache import (
    AppendEvent,
    add_append_listener,
    add_invalidation_listener,
    get_cache,
)
from repro.engine.expressions import (
    And,
    Between,
    Compare,
    CompareOp,
    Equals,
    InSet,
    Not,
    Or,
    Predicate,
)
from repro.engine.parallel import ExecutionOptions, chunk_ranges
from repro.engine.table import Table
from repro.obs.registry import get_registry

#: Parameter variants remembered per (template, anchors, chunk_rows) slot;
#: beyond this the least-hit entry is evicted (deterministically).
SKETCH_SLOT_CAPACITY = 8

#: Additive floor on chunk scores so every eligible chunk keeps a strictly
#: positive inclusion probability — a requirement for Horvitz–Thompson
#: unbiasedness (a zero-probability chunk's rows could never be observed).
SCORE_FLOOR = 0.05


# ----------------------------------------------------------------------
# Query templates: canonical predicate shape + extracted constants
# ----------------------------------------------------------------------
def predicate_template(
    predicate: Predicate,
) -> tuple[tuple, tuple] | None:
    """``(template_key, params)`` canonical form, or ``None``.

    The template key captures the predicate's *shape* (operators and
    column names); ``params`` carries the constants, nested to mirror the
    tree.  AND/OR children are sorted by key so operand order never
    splits a template.  ``None`` means the predicate is not templatable
    (bitmask filters depend on table-level state, not parameters).
    """
    if isinstance(predicate, Equals):
        return ("eq", predicate.column), (predicate.value,)
    if isinstance(predicate, Compare):
        return (
            ("cmp", predicate.column, predicate.op.value),
            (predicate.value,),
        )
    if isinstance(predicate, Between):
        return ("between", predicate.column), (predicate.low, predicate.high)
    if isinstance(predicate, InSet):
        try:
            values = frozenset(predicate.values)
        except TypeError:
            return None
        return ("in", predicate.column), (values,)
    if isinstance(predicate, Not):
        child = predicate_template(predicate.operand)
        if child is None:
            return None
        child_key, child_params = child
        return ("not", child_key), (child_params,)
    if isinstance(predicate, (And, Or)):
        children = []
        for operand in predicate.operands:
            child = predicate_template(operand)
            if child is None:
                return None
            children.append(child)
        # repr() gives a deterministic total order over the heterogeneous
        # key tuples; the sort is stable, so equal-key children keep
        # their original relative order on both sides of a lookup.
        children.sort(key=lambda pair: repr(pair[0]))
        tag = "and" if isinstance(predicate, And) else "or"
        return (
            (tag, tuple(key for key, _ in children)),
            tuple(params for _, params in children),
        )
    return None


def _safe_le(a: Any, b: Any) -> bool:
    try:
        return bool(a <= b)
    except TypeError:
        return False


def _safe_eq(a: Any, b: Any) -> bool:
    try:
        return bool(a == b)
    except TypeError:
        return False


def dominates(template_key: tuple, old_params: tuple, new_params: tuple) -> bool:
    """Whether the old parameters' matching-row set covers the new one's.

    If this holds, every chunk relevant to the *new* query is in the
    *old* query's realized chunk set — the soundness condition for
    serving a sketch.  Incomparable parameter types conservatively fail.
    """
    tag = template_key[0]
    if tag == "eq":
        return _safe_eq(old_params[0], new_params[0])
    if tag == "cmp":
        op = template_key[2]
        old, new = old_params[0], new_params[0]
        if op in (CompareOp.LT.value, CompareOp.LE.value):
            return _safe_le(new, old)  # {x < old} covers {x < new}
        if op in (CompareOp.GT.value, CompareOp.GE.value):
            return _safe_le(old, new)
        return _safe_eq(old, new)  # = / <> only cover themselves
    if tag == "between":
        old_lo, old_hi = old_params
        new_lo, new_hi = new_params
        return _safe_le(old_lo, new_lo) and _safe_le(new_hi, old_hi)
    if tag == "in":
        try:
            return bool(new_params[0] <= old_params[0])
        except TypeError:
            return False
    if tag == "not":
        # Containment flips under negation, so only identical parameters
        # are provably equivalent.
        return old_params == new_params
    if tag in ("and", "or"):
        child_keys = template_key[1]
        return all(
            dominates(child_key, old_child, new_child)
            for child_key, old_child, new_child in zip(
                child_keys, old_params, new_params
            )
        )
    return False


# ----------------------------------------------------------------------
# The sketch store
# ----------------------------------------------------------------------
@dataclass
class _SketchEntry:
    """One parameter variant of a template: its realized chunk set.

    ``appended`` marks chunks added to ``chunks`` by the incremental
    append path (:meth:`SketchStore.extend_on_append`) rather than by a
    full evaluation: they are UNKNOWN-relevance tail chunks that must be
    scanned until the next complete evaluation re-records the entry.
    Dominance reuse stays sound — every row the append touched lives in
    an appended chunk, and appended chunks are always in ``chunks``.
    """

    params: tuple
    chunks: tuple[int, ...]
    hits: int = 0
    appended: frozenset = frozenset()


@dataclass(frozen=True)
class SketchHit:
    """A served sketch: the chunks to scan, with the appended-UNKNOWN subset.

    ``chunks`` is what the executor evaluates (sorted, exact-equivalent
    coverage); ``appended`` lets skip reports count post-append UNKNOWN
    chunks distinctly (``PieceSkipStats.appended_unknown``) so sketch
    scan ratios stay comparable under append-heavy workloads.
    """

    chunks: np.ndarray
    appended: frozenset = frozenset()


class SketchStore:
    """Provenance sketches keyed by query template + column identities.

    Thread safety mirrors :class:`repro.engine.cache.ExecutionCache`: one
    re-entrant lock guards every structural read and write (re-entrant
    because weakref death callbacks can fire during garbage collection
    while the owning thread holds the lock).  Anchors are validated on
    every lookup — a slot whose columns were replaced is dropped, never
    served — and the explicit invalidation fan-out is wired through
    :func:`repro.engine.cache.add_invalidation_listener` at import time.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        # slot key -> (anchor weakrefs, anchor ids, entries, chunk hit counts)
        self._slots: dict[
            tuple, tuple[tuple, tuple[int, ...], list[_SketchEntry], dict[int, int]]
        ] = {}
        # id(anchor) -> slot keys anchored on it, for invalidation
        self._anchor_slots: dict[int, set[tuple]] = {}

    def _slot_key(
        self, template: tuple, anchors: list, chunk_rows: int
    ) -> tuple:
        return (template, tuple(id(a) for a in anchors), chunk_rows)

    def _drop_slot(self, key: tuple) -> None:
        with self._lock:
            slot = self._slots.pop(key, None)
            if slot is None:
                return
            for anchor_id in slot[1]:
                keys = self._anchor_slots.get(anchor_id)
                if keys is not None:
                    keys.discard(key)
                    if not keys:
                        del self._anchor_slots[anchor_id]

    def _live_slot(self, key: tuple, anchors: list):
        """The slot for ``key`` if every anchor is still the same live
        object it was stored against; drops and returns ``None`` otherwise."""
        slot = self._slots.get(key)
        if slot is None:
            return None
        if not all(ref() is anchor for ref, anchor in zip(slot[0], anchors)):
            self._drop_slot(key)
            return None
        return slot

    def lookup(
        self,
        template: tuple,
        anchors: list,
        params: tuple,
        chunk_rows: int,
        count_stats: bool = True,
    ) -> SketchHit | None:
        """A :class:`SketchHit` provably covering the new query, or ``None``.

        Scans the slot's parameter variants for one that dominates
        ``params`` and returns the smallest such realized set (with its
        appended-UNKNOWN subset).  With ``count_stats`` (the executor's
        fast path, not planning probes) the hit/miss lands in the shared
        cache metrics under kind ``"provenance_sketch"`` and the obs
        registry.
        """
        key = self._slot_key(template, anchors, chunk_rows)
        best: _SketchEntry | None = None
        with self._lock:
            slot = self._live_slot(key, anchors)
            if slot is not None:
                for entry in slot[2]:
                    if dominates(template, entry.params, params):
                        # Tie-break on the chunk tuple itself, not entry
                        # order: concurrent recordings may append entries
                        # in any order, and planning probes must stay
                        # deterministic for the fixed-seed guarantee.
                        if best is None or (
                            len(entry.chunks),
                            entry.chunks,
                        ) < (len(best.chunks), best.chunks):
                            best = entry
                if best is not None:
                    best.hits += 1
                    hit_counts = slot[3]
                    for chunk in best.chunks:
                        hit_counts[chunk] = hit_counts.get(chunk, 0) + 1
        if count_stats:
            metrics = get_cache().metrics
            if best is not None:
                metrics.record_hit("provenance_sketch")
                get_registry().incr("selection.sketch_hits")
            else:
                metrics.record_miss("provenance_sketch")
                get_registry().incr("selection.sketch_misses")
        if best is None:
            return None
        return SketchHit(
            chunks=np.asarray(best.chunks, dtype=np.int64),
            appended=best.appended,
        )

    def record(
        self,
        template: tuple,
        anchors: list,
        params: tuple,
        chunk_rows: int,
        chunks,
    ) -> None:
        """Store the realized chunk set of one full evaluation.

        Only complete evaluations may be recorded — a budgeted partial
        scan's realized set would poison later dominance reuse (the
        executor enforces this; the store cannot tell).
        """
        chunk_tuple = tuple(int(c) for c in chunks)
        key = self._slot_key(template, anchors, chunk_rows)

        def _on_death(_ref, key=key, store_ref=weakref.ref(self)):
            store = store_ref()
            if store is not None:
                store._drop_slot(key)

        with self._lock:
            slot = self._live_slot(key, anchors)
            if slot is None:
                try:
                    refs = tuple(weakref.ref(a, _on_death) for a in anchors)
                except TypeError:
                    return  # unanchorable → uncacheable, like ExecutionCache
                anchor_ids = tuple(id(a) for a in anchors)
                slot = (refs, anchor_ids, [], {})
                self._slots[key] = slot
                for anchor_id in anchor_ids:
                    self._anchor_slots.setdefault(anchor_id, set()).add(key)
            entries = slot[2]
            for entry in entries:
                if entry.params == params:
                    entry.chunks = chunk_tuple
                    # A complete evaluation verifies every chunk, so any
                    # appended-UNKNOWN provisional marks are resolved.
                    entry.appended = frozenset()
                    break
            else:
                entries.append(_SketchEntry(params=params, chunks=chunk_tuple))
                if len(entries) > SKETCH_SLOT_CAPACITY:
                    victim = min(
                        range(len(entries)),
                        key=lambda i: (entries[i].hits, i),
                    )
                    del entries[victim]
            hit_counts = slot[3]
            for chunk in chunk_tuple:
                hit_counts[chunk] = hit_counts.get(chunk, 0) + 1

    def chunk_hits(
        self,
        template: tuple,
        anchors: list,
        chunk_rows: int,
        n_chunks: int,
    ) -> np.ndarray:
        """Dense per-chunk historical relevance counts for selection scoring."""
        key = self._slot_key(template, anchors, chunk_rows)
        out = np.zeros(n_chunks, dtype=np.float64)
        with self._lock:
            slot = self._live_slot(key, anchors)
            if slot is not None:
                for chunk, count in slot[3].items():
                    if 0 <= chunk < n_chunks:
                        out[chunk] = count
        return out

    def extend_on_append(
        self,
        mapping: dict[int, Any],
        old_rows: int,
        new_rows: int,
    ) -> int:
        """Re-anchor and extend sketches across an ``append_rows`` swap.

        ``mapping`` maps ``id(old_column) -> new_column`` for the
        replaced table.  Every slot whose anchors are all in the mapping
        (and still live) is migrated: the old slot is dropped (the
        invalidation primitive — the old anchors are about to be
        invalidated anyway) and a new slot keyed on the new column
        identities takes its place, with each entry's chunk set rewritten
        instead of discarded:

        * chunks in the stable prefix (ranges identical under both row
          counts) keep their recorded relevance verdicts — their rows are
          byte-identical after ``concat``;
        * every chunk from the first changed boundary onward is added and
          marked appended-UNKNOWN: it may hold matching rows (new data,
          or old data reshuffled across boundaries), so it must be
          scanned until the next complete evaluation re-records it.

        Dominance serving stays exact under this rewrite, which is the
        whole point: a retained sketch still proves every *unlisted*
        chunk holds no matching rows.  Returns the number of slots
        retained (the ``ingest.sketches_retained`` counter).
        """
        retained = 0
        with self._lock:
            for key in list(self._slots):
                template, anchor_ids, chunk_rows = key
                if not all(a in mapping for a in anchor_ids):
                    continue
                slot = self._slots.get(key)
                if slot is None:
                    continue
                if any(ref() is None for ref in slot[0]):
                    self._drop_slot(key)
                    continue
                old_ranges = chunk_ranges(old_rows, chunk_rows)
                new_ranges = chunk_ranges(new_rows, chunk_rows)
                first_changed = 0
                limit = min(len(old_ranges), len(new_ranges))
                while (
                    first_changed < limit
                    and old_ranges[first_changed] == new_ranges[first_changed]
                ):
                    first_changed += 1
                tail = frozenset(range(first_changed, len(new_ranges)))
                new_anchors = [mapping[a] for a in anchor_ids]
                new_key = (
                    template,
                    tuple(id(a) for a in new_anchors),
                    chunk_rows,
                )

                def _on_death(
                    _ref, key=new_key, store_ref=weakref.ref(self)
                ):
                    store = store_ref()
                    if store is not None:
                        store._drop_slot(key)

                try:
                    refs = tuple(
                        weakref.ref(a, _on_death) for a in new_anchors
                    )
                except TypeError:
                    self._drop_slot(key)
                    continue
                entries = [
                    _SketchEntry(
                        params=entry.params,
                        chunks=tuple(
                            sorted(
                                {c for c in entry.chunks if c < first_changed}
                                | tail
                            )
                        ),
                        hits=entry.hits,
                        appended=frozenset(
                            c for c in entry.appended if c < first_changed
                        )
                        | tail,
                    )
                    for entry in slot[2]
                ]
                hit_counts = dict(slot[3])
                self._drop_slot(key)
                new_ids = tuple(id(a) for a in new_anchors)
                self._slots[new_key] = (refs, new_ids, entries, hit_counts)
                for anchor_id in new_ids:
                    self._anchor_slots.setdefault(anchor_id, set()).add(
                        new_key
                    )
                retained += 1
        return retained

    def invalidate_object(self, obj: Any) -> None:
        """Drop every slot anchored on ``obj`` (id-reuse guarded)."""
        with self._lock:
            keys = self._anchor_slots.get(id(obj))
            for key in list(keys or ()):
                slot = self._slots.get(key)
                if slot is not None and any(ref() is obj for ref in slot[0]):
                    self._drop_slot(key)

    def clear(self) -> None:
        """Drop every sketch (safe — sketches are pure acceleration)."""
        with self._lock:
            self._slots.clear()
            self._anchor_slots.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._slots)


#: Process-wide sketch store.
_GLOBAL_STORE = SketchStore()


def get_sketch_store() -> SketchStore:
    """The process-wide provenance-sketch store."""
    return _GLOBAL_STORE


def reset_sketch_store() -> None:
    """Replace the store wholesale (tests and benchmarks start cold)."""
    global _GLOBAL_STORE
    _GLOBAL_STORE = SketchStore()


def _on_invalidation(obj: Any) -> None:
    # Must not raise (listener contract); invalidate_object is total.
    _GLOBAL_STORE.invalidate_object(obj)


add_invalidation_listener(_on_invalidation)


def _on_append(event: AppendEvent) -> None:
    """Append listener: retain sketches across the table swap.

    Fires before the old table is invalidated, so slots still anchored
    on the old columns can be migrated onto the new ones; the
    invalidation that follows then finds nothing left to drop.
    """
    mapping = {id(old): new for _name, old, new in event.columns}
    retained = _GLOBAL_STORE.extend_on_append(
        mapping, event.old_rows, event.new_rows
    )
    if retained:
        get_registry().incr("ingest.sketches_retained", retained)


add_append_listener(_on_append)


def sketch_anchors(table: Table, predicate: Predicate) -> list:
    """The identity anchors for ``predicate`` over ``table``.

    The same objects — the referenced columns in sorted-name order — that
    key the executor's ``predicate_mask`` cache entries, so both caches
    invalidate in lockstep when a column is replaced.
    """
    return [table.column(name) for name in sorted(predicate.columns())]


def realized_chunks(
    mask: np.ndarray, n_rows: int, chunk_rows: int
) -> np.ndarray:
    """Indices of chunks with at least one set bit in a full-table mask."""
    ranges = chunk_ranges(n_rows, chunk_rows)
    if not ranges or mask.shape[0] != n_rows:
        return np.zeros(0, dtype=np.int64)
    starts = [start for start, _ in ranges]
    hits = np.add.reduceat(mask.astype(np.int64), starts) > 0
    return np.flatnonzero(hits).astype(np.int64)


# ----------------------------------------------------------------------
# PS3-style budgeted selection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChunkSelectionPlan:
    """A deterministic weighted chunk subset with inclusion probabilities.

    ``chunk_indices[i]`` was drawn with first-order inclusion probability
    ``probabilities[i]``; ``verdicts[i]`` is its zone-map verdict (so the
    executor can skip mask evaluation for proven-ALL_TRUE chunks).  The
    plan is drawn once, serially, before the pieces scatter, so every
    worker count executes the *same* draw.
    """

    chunk_indices: tuple[int, ...]
    probabilities: tuple[float, ...]
    verdicts: tuple[int, ...]
    n_chunks: int
    n_eligible: int

    @property
    def ht_weight_range(self) -> tuple[float, float]:
        """(min, max) Horvitz–Thompson row weight across selected chunks."""
        inverse = [1.0 / p for p in self.probabilities]
        return (min(inverse), max(inverse))


def _numeric_bounds(
    table: Table, column: str, options: ExecutionOptions
) -> tuple[np.ndarray, np.ndarray] | None:
    zone_map = zonemap.column_zone_map(table.column(column), options)
    if zone_map.is_string:
        return None
    mins = np.array([s[0] for s in zone_map.summaries], dtype=np.float64)
    maxs = np.array([s[1] for s in zone_map.summaries], dtype=np.float64)
    return mins, maxs


def _interval_fractions(
    table: Table,
    column: str,
    low: float,
    high: float,
    options: ExecutionOptions,
    n_chunks: int,
) -> np.ndarray:
    """Per-chunk fraction of the value range inside ``[low, high]``."""
    bounds = _numeric_bounds(table, column, options)
    if bounds is None:
        return np.full(n_chunks, 0.5)
    mins, maxs = bounds
    width = maxs - mins
    overlap = np.minimum(maxs, high) - np.maximum(mins, low)
    with np.errstate(invalid="ignore"):
        frac = np.where(
            width > 0,
            np.clip(overlap / np.where(width > 0, width, 1.0), 0.0, 1.0),
            ((mins >= low) & (mins <= high)).astype(np.float64),
        )
    return np.where(np.isnan(frac), 0.5, frac)


def _code_set_fractions(
    table: Table, column: str, values, options: ExecutionOptions, n_chunks: int
) -> np.ndarray:
    """Per-chunk distinct-code density of string membership predicates."""
    col = table.column(column)
    zone_map = zonemap.column_zone_map(col, options)
    if not zone_map.is_string:
        return np.full(n_chunks, 0.5)
    targets = {
        code for code in (col.encode_value(v) for v in values) if code >= 0
    }
    out = np.empty(n_chunks, dtype=np.float64)
    for i, (code_set, _nulls) in enumerate(zone_map.summaries):
        if code_set is None:  # distinct cutoff hit: density unknown
            out[i] = 0.5
        elif not code_set:
            out[i] = 0.0
        else:
            out[i] = len(code_set & targets) / len(code_set)
    return out


def overlap_fractions(
    table: Table,
    predicate: Predicate | None,
    options: ExecutionOptions,
    n_chunks: int,
) -> np.ndarray:
    """Crude per-chunk predicate-overlap estimates in ``[0, 1]``.

    These only shape the *sampling design* (which chunks are likelier to
    be drawn); Horvitz–Thompson reweighting keeps the estimates unbiased
    whatever the scores are, so rough is fine — better scores just mean
    lower variance.  Unscorable shapes default to 0.5.
    """
    if predicate is None:
        return np.ones(n_chunks)
    if isinstance(predicate, And):
        out = np.ones(n_chunks)
        for operand in predicate.operands:
            out *= overlap_fractions(table, operand, options, n_chunks)
        return out
    if isinstance(predicate, Or):
        out = np.zeros(n_chunks)
        for operand in predicate.operands:
            out += overlap_fractions(table, operand, options, n_chunks)
        return np.minimum(out, 1.0)
    if isinstance(predicate, Not):
        return 1.0 - overlap_fractions(
            table, predicate.operand, options, n_chunks
        )
    if isinstance(predicate, Between):
        if not all(
            isinstance(v, (bool, int, float, np.integer, np.floating))
            for v in (predicate.low, predicate.high)
        ):
            return np.full(n_chunks, 0.5)
        return _interval_fractions(
            table,
            predicate.column,
            float(predicate.low),
            float(predicate.high),
            options,
            n_chunks,
        )
    if isinstance(predicate, Compare) and isinstance(
        predicate.value, (bool, int, float, np.integer, np.floating)
    ):
        value = float(predicate.value)
        if predicate.op in (CompareOp.GE, CompareOp.GT):
            return _interval_fractions(
                table, predicate.column, value, np.inf, options, n_chunks
            )
        if predicate.op in (CompareOp.LE, CompareOp.LT):
            return _interval_fractions(
                table, predicate.column, -np.inf, value, options, n_chunks
            )
    if isinstance(predicate, Equals):
        return _code_set_fractions(
            table, predicate.column, [predicate.value], options, n_chunks
        )
    if isinstance(predicate, InSet):
        return _code_set_fractions(
            table, predicate.column, predicate.values, options, n_chunks
        )
    return np.full(n_chunks, 0.5)


def _waterfill_probabilities(scores: np.ndarray, n_draw: int) -> np.ndarray:
    """Inclusion probabilities ``π ∝ score`` capped at 1, summing to ``n_draw``.

    Classic waterfilling: chunks whose proportional share exceeds 1 are
    pinned there and the residual draw count is re-spread over the rest;
    iterate until no new chunk hits the cap.
    """
    scores = np.where(scores > 0, scores, 1e-12).astype(np.float64)
    n = scores.shape[0]
    pi = np.zeros(n, dtype=np.float64)
    capped = np.zeros(n, dtype=bool)
    for _ in range(n):
        free = ~capped
        remaining = n_draw - int(capped.sum())
        if remaining <= 0 or not free.any():
            break
        share = remaining * scores[free] / scores[free].sum()
        pi[free] = share
        newly = free & (pi >= 1.0)
        if not newly.any():
            break
        capped |= newly
    pi[capped] = 1.0
    return np.clip(pi, 0.0, 1.0)


def _systematic_draw(pi: np.ndarray, seed: int) -> np.ndarray:
    """Without-replacement systematic PPS draw realizing ``π`` exactly.

    One uniform start ``u`` plus unit-spaced points over the cumulative
    probabilities — the textbook design whose first-order inclusion
    probabilities equal ``π`` (up to float rounding of the total), with
    a single random number so the draw is trivially reproducible.
    """
    total = float(pi.sum())
    n_points = max(1, int(round(total)))
    cumulative = np.cumsum(pi)
    u = float(np.random.default_rng(seed).random())
    points = (u + np.arange(n_points)) * (total / n_points)
    positions = np.searchsorted(cumulative, points, side="right")
    positions = np.unique(np.clip(positions, 0, pi.shape[0] - 1))
    return positions


def _derive_seed(options: ExecutionOptions, n_chunks: int, n_eligible: int) -> int:
    """Deterministic per-scan seed: same inputs → same draw everywhere."""
    return (
        options.selection_seed * 1000003 + n_chunks * 8191 + n_eligible
    ) % (2**31 - 1)


def plan_chunk_selection(
    table: Table,
    predicate: Predicate | None,
    options: ExecutionOptions,
) -> ChunkSelectionPlan | None:
    """A budgeted chunk subset for one table scan, or ``None`` for full scan.

    ``None`` when selection is off, the table has at most one chunk, or
    the budget is not binding (the eligible rows already fit) — in that
    last case the full scan runs and answers are identical to
    ``chunk_selection=False``, preserving the opt-in equivalence.

    The plan is a pure function of the zone-map summaries, the sketch
    history, and ``selection_seed`` — the determinism sweep relies on
    this to pin byte-identical answers at every worker count.
    """
    if not options.chunk_selection:
        return None
    ranges = chunk_ranges(table.n_rows, options.chunk_rows)
    n_chunks = len(ranges)
    if n_chunks <= 1:
        return None
    if predicate is None:
        verdicts = np.full(n_chunks, zonemap.VERDICT_ALL_TRUE, dtype=np.int8)
    else:
        verdicts = zonemap.chunk_verdicts(table, predicate, options)
    eligible_mask = verdicts != zonemap.VERDICT_ALL_FALSE

    # A dominating sketch narrows eligibility further: chunks outside it
    # provably hold no matching rows.  This probe is planning, not the
    # executor's fast path, so it does not count toward sketch hit/miss.
    template = None
    if predicate is not None and predicate.cache_safe():
        template = predicate_template(predicate)
    anchors = None
    store = get_sketch_store()
    if template is not None:
        anchors = sketch_anchors(table, predicate)
        sketched = store.lookup(
            template[0],
            anchors,
            template[1],
            options.chunk_rows,
            count_stats=False,
        )
        if sketched is not None:
            in_sketch = np.zeros(n_chunks, dtype=bool)
            in_sketch[sketched.chunks] = True
            eligible_mask &= in_sketch

    eligible = np.flatnonzero(eligible_mask)
    n_eligible = int(eligible.shape[0])
    if n_eligible == 0:
        return None
    sizes = np.array([stop - start for start, stop in ranges], dtype=np.int64)
    eligible_rows = int(sizes[eligible].sum())
    if eligible_rows <= options.selection_budget:
        return None  # budget not binding: scan everything, stay exact

    scores = np.full(n_chunks, SCORE_FLOOR)
    scores += overlap_fractions(table, predicate, options, n_chunks)
    if template is not None and anchors is not None:
        hits = store.chunk_hits(
            template[0], anchors, options.chunk_rows, n_chunks
        )
        peak = hits.max()
        if peak > 0:
            scores += 0.5 * hits / peak
    scores = scores[eligible]

    mean_rows = eligible_rows / n_eligible
    n_draw = int(round(options.selection_budget / mean_rows))
    n_draw = max(1, min(n_draw, n_eligible))
    if n_draw >= n_eligible:
        return None  # the draw would take everything: full scan is exact

    pi = _waterfill_probabilities(scores, n_draw)
    seed = _derive_seed(options, n_chunks, n_eligible)
    positions = _systematic_draw(pi, seed)
    selected = eligible[positions]
    registry = get_registry()
    registry.incr("selection.plans")
    registry.incr("selection.chunks_eligible", n_eligible)
    registry.incr("selection.chunks_selected", int(selected.shape[0]))
    return ChunkSelectionPlan(
        chunk_indices=tuple(int(c) for c in selected),
        probabilities=tuple(float(p) for p in pi[positions]),
        verdicts=tuple(int(v) for v in verdicts[selected]),
        n_chunks=n_chunks,
        n_eligible=n_eligible,
    )


def ht_row_weights(
    plan: ChunkSelectionPlan, n_rows: int, chunk_rows: int
) -> np.ndarray:
    """Full-length Horvitz–Thompson row weights for a plan.

    Rows in selected chunks weigh ``1 / π(chunk)``; everything else is 0
    (those rows are excluded by the plan's keep mask anyway, but a zero
    weight keeps any stray inclusion from biasing a sum).
    """
    ranges = chunk_ranges(n_rows, chunk_rows)
    weights = np.zeros(n_rows, dtype=np.float64)
    for chunk, probability in zip(plan.chunk_indices, plan.probabilities):
        start, stop = ranges[chunk]
        weights[start:stop] = 1.0 / probability
    return weights


__all__ = [
    "ChunkSelectionPlan",
    "SCORE_FLOOR",
    "SKETCH_SLOT_CAPACITY",
    "SketchHit",
    "SketchStore",
    "dominates",
    "get_sketch_store",
    "ht_row_weights",
    "overlap_fractions",
    "plan_chunk_selection",
    "predicate_template",
    "realized_chunks",
    "reset_sketch_store",
    "sketch_anchors",
]
