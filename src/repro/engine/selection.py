"""Provenance sketches: exact-equivalent chunk selection for WHERE.

Sketches sit between the zone maps and the executor's chunk-wise WHERE
evaluation (see :mod:`repro.engine.zonemap`), after Liu, "Cost-based
Selection of Provenance Sketches for Data Skipping".  After a query
evaluates, the executor records which chunks actually produced
matching rows (the *realized* chunk-relevance set), keyed by a
normalized query template: the predicate tree with constants extracted,
so ``x BETWEEN 10 AND 20`` and ``x BETWEEN 30 AND 40`` share one
template with different parameters.  On re-execution, a stored sketch
whose parameters *dominate* the new query's (its matching-row set is a
superset — e.g. a wider BETWEEN interval) proves that chunks outside
the sketch contain no matching rows, so the executor scans only the
sketched chunks and skips verdict evaluation entirely.  Answers are
byte-identical to the non-sketch path.

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
from repro.engine.parallel import chunk_ranges
from repro.engine.table import Table
from repro.obs.registry import get_registry

#: Parameter variants remembered per (template, anchors, chunk_rows) slot;
#: beyond this the least-hit entry is evicted (deterministically).
SKETCH_SLOT_CAPACITY = 8


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
        # slot key -> (anchor weakrefs, anchor ids, entries)
        self._slots: dict[
            tuple, tuple[tuple, tuple[int, ...], list[_SketchEntry]]
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
    ) -> SketchHit | None:
        """A :class:`SketchHit` provably covering the new query, or ``None``.

        Scans the slot's parameter variants for one that dominates
        ``params`` and returns the smallest such realized set (with its
        appended-UNKNOWN subset).  The hit/miss lands in the shared cache
        metrics under kind ``"provenance_sketch"`` and the obs registry.
        """
        key = self._slot_key(template, anchors, chunk_rows)
        best: _SketchEntry | None = None
        with self._lock:
            slot = self._live_slot(key, anchors)
            if slot is not None:
                for entry in slot[2]:
                    if dominates(template, entry.params, params):
                        if best is None or (
                            len(entry.chunks),
                            entry.chunks,
                        ) < (len(best.chunks), best.chunks):
                            best = entry
                if best is not None:
                    best.hits += 1
        metrics = get_cache().metrics
        if best is None:
            metrics.record_miss("provenance_sketch")
            get_registry().incr("selection.sketch_misses")
            return None
        metrics.record_hit("provenance_sketch")
        get_registry().incr("selection.sketch_hits")
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

        Only complete evaluations may be recorded — a partial scan's
        realized set would poison later dominance reuse (the executor
        enforces this; the store cannot tell).
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
                slot = (refs, anchor_ids, [])
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
                self._drop_slot(key)
                new_ids = tuple(id(a) for a in new_anchors)
                self._slots[new_key] = (refs, new_ids, entries)
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


__all__ = [
    "SKETCH_SLOT_CAPACITY",
    "SketchHit",
    "SketchStore",
    "dominates",
    "get_sketch_store",
    "predicate_template",
    "realized_chunks",
    "reset_sketch_store",
    "sketch_anchors",
]
