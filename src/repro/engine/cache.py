"""Shared state of the engine's memos: counters, bytes held and budget.

Derived execution state — dense grouping codes, star-join positions
(``int32``), WHERE masks — is recomputable from a stored column and
reused across a query stream, the way production AQP
middleware (BlinkDB-style systems) must to serve repeated workloads.
It lives on the column it describes (:meth:`Column.derived
<repro.engine.column.Column.derived>`): a column is an immutable
snapshot and an append publishes new columns, so a memo can never
describe rows its column does not hold, and it dies with its column.
No identity keys or invalidation calls are needed.

This module keeps what the memos share: per-kind hit/miss counters
(:class:`CacheMetrics`, re-exported through :mod:`repro.metrics`), the
bytes each kind holds, the byte budget of the per-query kind
(:data:`PREDICATE_MASK_BUDGET`, least recently used evicted first), and
:meth:`DerivedState.clear`, which frees every memo so cold measurements
recompute.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

#: Bytes the ``predicate_mask`` memos of all columns may hold together.
#: A WHERE mask is packed, one bit per row (125 kB at 1M rows), so this
#: keeps the last ≈ 530 distinct WHERE clauses over a 1M-row table, or
#: ≈ 90 at 6M rows.  Past it the least recently used mask is evicted.
#: Per-column kinds (``column_codes``, ``join_positions``) are bounded
#: by the schema and have no budget.
PREDICATE_MASK_BUDGET = 64 * 2**20


@dataclass
class CacheMetrics:
    """Hit/miss counters per cache kind (``join_positions``,
    ``predicate_mask``, ``column_codes``, ``sql_parse`` ...).

    Counter updates take a private lock: dict read-modify-write is not
    atomic under free-running threads, and hits + misses must equal the
    number of lookups even under concurrent hammering.
    """

    hits: dict[str, int] = field(default_factory=dict)
    misses: dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record_hit(self, kind: str) -> None:
        """Count one cache hit for ``kind``."""
        with self._lock:
            self.hits[kind] = self.hits.get(kind, 0) + 1

    def record_miss(self, kind: str) -> None:
        """Count one cache miss for ``kind``."""
        with self._lock:
            self.misses[kind] = self.misses.get(kind, 0) + 1

    def hit_rate(self, kind: str) -> float | None:
        """Fraction of lookups served from cache.

        ``None`` when the kind was never looked up — never NaN, which
        would leak the invalid-JSON ``NaN`` token into benchmark
        artifacts (``BENCH_*.json``) that embed :meth:`snapshot`.
        """
        with self._lock:
            hits = self.hits.get(kind, 0)
            total = hits + self.misses.get(kind, 0)
        return hits / total if total else None

    def total_hits(self) -> int:
        """Hits summed across every kind."""
        with self._lock:
            return sum(self.hits.values())

    def counts(self) -> dict:
        """Bare hits/misses copies — the cheap per-query-delta view.

        ``QueryProfile`` assembly diffs two of these around every
        profiled query, so this skips :meth:`snapshot`'s per-kind
        rollup (which would otherwise dominate profiling overhead).
        """
        with self._lock:
            return {"hits": dict(self.hits), "misses": dict(self.misses)}

    def snapshot(self) -> dict:
        """A plain-dict view for reports and benchmark JSON.

        Strict-JSON-safe: per-kind hit rates are plain ratios (a kind
        only appears once looked up, so the denominator is never zero).
        ``invalidations`` is always 0: memos die with their columns, so
        nothing is ever invalidated (the key stays for report readers).
        """
        with self._lock:
            kinds = sorted(set(self.hits) | set(self.misses))
            return {
                "hits": dict(self.hits),
                "misses": dict(self.misses),
                "invalidations": 0,
                "by_kind": {
                    k: {
                        "hits": self.hits.get(k, 0),
                        "misses": self.misses.get(k, 0),
                        "hit_rate": self.hits.get(k, 0)
                        / (self.hits.get(k, 0) + self.misses.get(k, 0)),
                    }
                    for k in kinds
                },
            }

    def reset(self) -> None:
        """Zero all counters."""
        with self._lock:
            self.hits.clear()
            self.misses.clear()


class DerivedState:
    """Process-wide controls of the per-column memos (:meth:`Column.derived`).

    The memos themselves live on the columns they describe; this object
    holds what they share: the hit/miss :attr:`metrics`, the bytes each
    kind holds (:meth:`bytes_held`) and the ``predicate_mask`` budget
    with its least-recently-used order.

    Every store goes through :meth:`hold`, under one lock, so the byte
    counts are exact and :meth:`clear` reaches every entry.  A column is referenced only weakly: when it dies,
    its memo dies with it and its bytes leave the counts on the next
    call (a weak-reference callback queues it).
    """

    def __init__(self) -> None:
        self.metrics = CacheMetrics()
        self._lock = threading.Lock()
        # kind -> {(id(column), slot): (weak column, bytes)}, oldest first.
        self._held: dict[str, OrderedDict] = {}
        self._bytes: dict[str, int] = {}
        # (kind, record key, weak column) of columns that died.
        self._dead: deque = deque()

    def hold(self, column: Any, slot: tuple, entry: tuple) -> None:
        """Store ``entry`` under ``slot`` in ``column``'s memo and count it.

        ``entry`` is ``(also, value)``; the value's array bytes (except
        the column's own ``data``, which a code memo may reuse) count
        towards its kind.  ``predicate_mask`` then evicts its least
        recently used entries, of any column, until the kind fits
        :data:`PREDICATE_MASK_BUDGET`: a mask larger than the whole
        budget is not kept at all.
        """
        kind = slot[0]
        size = _array_bytes(entry[1], column.data)
        record = (id(column), slot)
        dead = self._dead
        with self._lock:
            self._forget_dead()
            if column._memo is None:
                column._memo = {}
            column._memo[slot] = entry
            held = self._held.setdefault(kind, OrderedDict())
            previous = held.pop(record, None)
            total = self._bytes.get(kind, 0) + size
            if previous is not None:
                total -= previous[1]
            held[record] = (
                weakref.ref(column, lambda ref: dead.append((kind, record, ref))),
                size,
            )
            while kind == "predicate_mask" and total > PREDICATE_MASK_BUDGET:
                (_, old_slot), (ref, old_size) = held.popitem(last=False)
                total -= old_size
                _drop(ref(), old_slot)
            self._bytes[kind] = total

    def touch(self, column: Any, slot: tuple) -> None:
        """Mark a ``predicate_mask`` entry as just used (evicted last)."""
        if slot[0] != "predicate_mask":
            return
        with self._lock:
            held = self._held.get(slot[0], {})
            if (id(column), slot) in held:
                held.move_to_end((id(column), slot))

    def bytes_held(self) -> dict[str, int]:
        """Array bytes the memos of live columns hold, per kind."""
        with self._lock:
            self._forget_dead()
            return dict(self._bytes)

    def snapshot(self) -> dict:
        """:meth:`CacheMetrics.snapshot` plus ``bytes_held`` and ``budget``."""
        return {
            **self.metrics.snapshot(),
            "bytes_held": self.bytes_held(),
            "budget": {"predicate_mask": PREDICATE_MASK_BUDGET},
        }

    def _forget_dead(self) -> None:
        """Drop the records of columns that died (caller holds the lock)."""
        while self._dead:
            kind, record, ref = self._dead.popleft()
            held = self._held.get(kind)
            if held is not None and held.get(record, (None,))[0] is ref:
                self._bytes[kind] -= held.pop(record)[1]

    def clear(self) -> None:
        """Free every memo filled so far: the next read recomputes.

        Counters are kept (use ``metrics.reset()``).  Cold-timing
        harnesses and cold-vs-warm comparisons call this between runs.
        """
        with self._lock:
            for held in self._held.values():
                for (_, slot), (ref, _) in held.items():
                    _drop(ref(), slot)
            self._held.clear()
            self._bytes.clear()
            self._dead.clear()


def _drop(column: Any, slot: tuple) -> None:
    """Remove ``slot`` from a live column's memo."""
    memo = None if column is None else column._memo
    if memo is not None:
        memo.pop(slot, None)


def _array_bytes(value: Any, own: np.ndarray) -> int:
    """Bytes of the arrays in ``value`` (or its tuple items), bar ``own``."""
    parts = value if isinstance(value, tuple) else (value,)
    return sum(
        part.nbytes
        for part in parts
        if isinstance(part, np.ndarray) and part is not own
    )


_DERIVED_STATE = DerivedState()


def get_cache() -> DerivedState:
    """The process-wide memo controls (metrics and :meth:`~DerivedState.clear`)."""
    return _DERIVED_STATE


def execution_cache_metrics() -> CacheMetrics:
    """Hit/miss counters of the column memos and the session parse memo."""
    return _DERIVED_STATE.metrics


__all__ = [
    "CacheMetrics",
    "DerivedState",
    "execution_cache_metrics",
    "get_cache",
]
