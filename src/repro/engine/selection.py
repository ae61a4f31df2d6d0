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
Sketches are execution-cache entries (:func:`sketch_slot`), anchored on
the identities of the predicate's column objects exactly like the
executor's ``predicate_mask`` entries.  Every lookup re-validates the
anchors through weak references, and the explicit paths
(``append_rows`` / ``insert_rows`` / ``drop_table``) drop them through
``invalidate_table`` with every other derived artifact, so a stale
sketch is never served.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.engine.cache import get_cache
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
# Sketch slots: execution-cache entries
# ----------------------------------------------------------------------
#: Cache kind of a sketch slot: the parameter variants recorded for one
#: template over one set of predicate columns under one chunk layout.
SKETCH_KIND = "provenance_sketch"

#: Guards reads and writes of slot contents; the cache itself only
#: guards which slot object is stored under a key.
_SLOT_LOCK = threading.Lock()


@dataclass
class _SketchEntry:
    """One parameter variant of a template: its realized chunk set."""

    params: tuple
    chunks: tuple[int, ...]
    hits: int = 0


def sketch_slot(
    template: tuple, anchors: list, chunk_rows: int
) -> list[_SketchEntry]:
    """The slot of ``template`` over the predicate columns ``anchors``.

    An :class:`~repro.engine.cache.ExecutionCache` entry anchored on the
    columns (the same anchors as the executor's ``predicate_mask``
    entries) and keyed by ``(template, chunk_rows)``, created empty on
    first use.  ``invalidate_table`` (``append_rows``, ``insert_rows``,
    ``drop_table``) and anchor death drop it along with every other
    artifact of the column, so a stale sketch is never served.  The
    cache's ``provenance_sketch`` hits count slots found; whether one of
    their variants dominates is counted by :func:`lookup_sketch`.
    """
    return get_cache().get_or_compute(
        SKETCH_KIND, anchors, list, extra=(template, chunk_rows)
    )


def lookup_sketch(
    slot: list[_SketchEntry], template: tuple, params: tuple
) -> np.ndarray | None:
    """Sorted chunk indices provably covering ``params``, or ``None``.

    Scans the slot's parameter variants for one that dominates
    ``params`` and returns the smallest such realized set.  The outcome
    is counted as ``selection.sketch_hits`` / ``selection.sketch_misses``
    in the obs registry.
    """
    best: _SketchEntry | None = None
    with _SLOT_LOCK:
        for entry in slot:
            if dominates(template, entry.params, params) and (
                best is None
                or (len(entry.chunks), entry.chunks)
                < (len(best.chunks), best.chunks)
            ):
                best = entry
        if best is not None:
            best.hits += 1
    if best is None:
        get_registry().incr("selection.sketch_misses")
        return None
    get_registry().incr("selection.sketch_hits")
    return np.asarray(best.chunks, dtype=np.int64)


def record_sketch(
    slot: list[_SketchEntry], params: tuple, chunks
) -> None:
    """Store the realized chunk set of one full evaluation.

    Only complete evaluations may be recorded — a partial scan's
    realized set would poison later dominance reuse (the executor
    enforces this; the slot cannot tell).  Beyond
    :data:`SKETCH_SLOT_CAPACITY` variants the least-hit one is evicted
    (the oldest among ties).
    """
    chunk_tuple = tuple(int(c) for c in chunks)
    with _SLOT_LOCK:
        for entry in slot:
            if entry.params == params:
                entry.chunks = chunk_tuple
                return
        slot.append(_SketchEntry(params=params, chunks=chunk_tuple))
        if len(slot) > SKETCH_SLOT_CAPACITY:
            victim = min(
                range(len(slot)), key=lambda i: (slot[i].hits, i)
            )
            del slot[victim]


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
    "SKETCH_KIND",
    "SKETCH_SLOT_CAPACITY",
    "dominates",
    "lookup_sketch",
    "predicate_template",
    "realized_chunks",
    "record_sketch",
    "sketch_slot",
]
