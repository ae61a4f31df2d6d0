"""Cross-query execution cache.

The engine's per-query cost model is "time proportional to rows
*scanned*", yet the seed executor paid avoidable per-query overheads that
are recomputable once and reusable forever: re-sorting grouping columns
with ``numpy.unique``, re-deriving star-schema foreign-key join positions
with ``argsort``, and re-evaluating WHERE predicates over the same stored
tables.  :class:`ExecutionCache` amortises that work across a query
stream, the way production AQP middleware (BlinkDB-style systems) must to
serve repeated workloads.

Design
------
Entries are keyed by a *kind* string, the identities of one or more
**anchor** objects (columns, tables), and an optional hashable extra key
(e.g. the predicate).  Every anchor is held through a :mod:`weakref`, so

* an entry is only served while each anchor is the *same live object* it
  was stored against — stored tables are immutable-by-convention and are
  replaced wholesale on append (``concat`` returns a new object), so
  identity equality is a correct freshness check; and
* entries die automatically with their anchors (the weakref callback
  prunes them), so the cache cannot serve a recycled ``id()``.

On top of the automatic lifetime management, the incremental-append paths
(:meth:`repro.engine.database.Database.append_rows`,
:meth:`repro.core.smallgroup.SmallGroupSampling.insert_rows`) call
:meth:`ExecutionCache.invalidate_table` explicitly so replaced tables
release their derived arrays immediately rather than at garbage
collection.

Hit/miss counters are collected per kind in :class:`CacheMetrics` and
re-exported through :mod:`repro.metrics`.
"""

from __future__ import annotations

import threading
import weakref
from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass, field
from typing import Any

#: Sentinel distinguishing "no cached value" from a cached ``None``.
MISS = object()


class _Flight:
    """One in-progress computation shared by a leader and its followers."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Any = None
        self.error: BaseException | None = None


class SingleFlight:
    """Per-key in-flight deduplication: N concurrent callers, one compute.

    ``do(key, fn)`` guarantees that while one call for ``key`` is in
    progress, every concurrent call for the same key *waits for that
    result* instead of recomputing it.  The first caller (the leader)
    runs ``fn`` outside any lock; followers block on the leader's event
    and share its value.  If the leader raises, its followers retry —
    one of them becomes the new leader — so an error never poisons the
    key, and the leader's exception propagates only to the caller that
    computed.

    This is the primitive behind the execution cache's cold-miss
    coalescing, the session parse/plan memos, and the serving layer's
    in-flight request dedup.  Keys must be hashable; ``fn`` must not
    recursively call ``do`` with the same key on the same thread (the
    second call would wait on itself).

    ``do`` returns ``(value, leader)`` — ``leader`` tells callers (and
    their metrics) whether this thread computed or coalesced.

    ``wait_timeout`` bounds how long a follower waits before retrying
    leadership; callers with deadlines pass the remaining budget and
    check it between rounds via ``deadline_check``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: dict[Hashable, _Flight] = {}

    def do(
        self,
        key: Hashable,
        fn: Callable[[], Any],
        deadline_check: Callable[[], None] | None = None,
    ) -> tuple[Any, bool]:
        """Compute ``fn()`` for ``key``, coalescing concurrent callers."""
        while True:
            if deadline_check is not None:
                deadline_check()
            with self._lock:
                flight = self._inflight.get(key)
                if flight is None:
                    flight = _Flight()
                    self._inflight[key] = flight
                    is_leader = True
                else:
                    is_leader = False
            if is_leader:
                try:
                    flight.value = fn()
                except BaseException as error:
                    flight.error = error
                    raise
                finally:
                    with self._lock:
                        self._inflight.pop(key, None)
                    flight.event.set()
                return flight.value, True
            # Follower: wait out the leader, bounded so a deadline-bearing
            # caller can re-check between rounds.
            flight.event.wait(timeout=0.05 if deadline_check else None)
            if not flight.event.is_set():
                continue
            if flight.error is None:
                return flight.value, False
            # The leader failed; loop and race to become the new leader.

    def inflight_count(self) -> int:
        """Number of keys currently being computed (tests, stats)."""
        with self._lock:
            return len(self._inflight)

#: Callbacks fired (outside the cache lock) whenever an object is
#: explicitly invalidated.  The provenance-sketch store
#: (:mod:`repro.engine.selection`) subscribes so that sketches of a
#: replaced table (``append_rows`` / ``insert_rows`` / ``drop_table``)
#: are dropped the moment the execution cache drops its entries, rather
#: than at garbage collection.
_INVALIDATION_LISTENERS: list[Callable[[Any], None]] = []


def add_invalidation_listener(listener: Callable[[Any], None]) -> None:
    """Subscribe to explicit invalidations on every :class:`ExecutionCache`.

    Listeners receive each object passed to
    :meth:`ExecutionCache.invalidate_object` (including the per-column
    and bitmask calls that :meth:`ExecutionCache.invalidate_table` fans
    out to).  They run on the invalidating thread, outside the cache
    lock, and must not raise.
    """
    _INVALIDATION_LISTENERS.append(listener)


@dataclass(frozen=True)
class AppendEvent:
    """A structured description of one ``append_rows`` table replacement.

    Emitted *before* the old table is invalidated, so consumers can
    migrate derived state from the old objects onto the new ones (zone
    maps, bitmask word summaries, provenance sketches)
    instead of rebuilding from scratch on the next query.  The old
    objects are still live while listeners run; the subsequent
    ``invalidate_table(old)`` then only drops whatever stayed anchored
    on them.

    ``columns`` pairs every column name with its old and new
    :class:`~repro.engine.column.Column` object.  ``Table.concat``
    guarantees the new objects carry the old data as an unchanged
    prefix (dictionary codes included), which is what makes per-chunk
    summary reuse sound.
    """

    table_name: str
    old_table: Any
    new_table: Any
    old_rows: int
    new_rows: int
    #: ``(name, old_column, new_column)`` per column, in table order.
    columns: tuple[tuple[str, Any, Any], ...]
    old_bitmask: Any = None
    new_bitmask: Any = None


#: Callbacks fired for every :class:`AppendEvent` — the delta-maintenance
#: sibling of the invalidation channel.  Same contract: listeners run on
#: the appending thread, outside any cache lock, and must not raise.
_APPEND_LISTENERS: list[Callable[[AppendEvent], None]] = []


def add_append_listener(listener: Callable[[AppendEvent], None]) -> None:
    """Subscribe to append events (see :class:`AppendEvent`).

    Consumers (zone maps, the sketch store) use the
    event to *extend* derived structures for the appended tail rather
    than dropping them; the invalidation that follows the event then
    finds nothing left anchored on the old objects.
    """
    _APPEND_LISTENERS.append(listener)


def notify_append(event: AppendEvent) -> None:
    """Fan one append event out to every registered listener.

    Counts toward the ``ingest.events`` registry counter.  Like
    invalidation, this call *is* the discharge of the
    mutation-invalidation contract (lint rules RL001/RL013): a catalog
    that swaps a table after notifying has routed every derived
    structure through either the extend path or the drop path.
    """
    from repro.obs.registry import get_registry

    get_registry().incr("ingest.events")
    for listener in _APPEND_LISTENERS:
        listener(event)


@dataclass
class CacheMetrics:
    """Hit/miss counters per cache kind (``join_positions``,
    ``predicate_mask``, ``column_codes``, ``joined_column``, ``zone_map``,
    ``zone_map_bitmask``, ``sql_parse``, ``plan``,
    ``provenance_sketch`` ...).  The last is recorded by the sketch store
    (:mod:`repro.engine.selection`), which shares this metrics surface
    even though its entries live outside :class:`ExecutionCache`.

    Counter updates take a private lock: dict read-modify-write is not
    atomic under free-running threads, and the thread-safety contract of
    :class:`ExecutionCache` promises that hits + misses equals the number
    of lookups even under concurrent hammering.
    """

    hits: dict[str, int] = field(default_factory=dict)
    misses: dict[str, int] = field(default_factory=dict)
    #: Lookups that missed but were served by another thread's in-flight
    #: computation (single-flight coalescing) instead of recomputing.
    coalesced: dict[str, int] = field(default_factory=dict)
    invalidations: int = 0
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

    def record_coalesced(self, kind: str) -> None:
        """Count one miss that was served by an in-flight leader."""
        with self._lock:
            self.coalesced[kind] = self.coalesced.get(kind, 0) + 1

    def record_invalidations(self, count: int) -> None:
        """Count ``count`` invalidated entries."""
        with self._lock:
            self.invalidations += count

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

    def total_misses(self) -> int:
        """Misses summed across every kind."""
        with self._lock:
            return sum(self.misses.values())

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
        """
        with self._lock:
            kinds = sorted(set(self.hits) | set(self.misses))
            return {
                "hits": dict(self.hits),
                "misses": dict(self.misses),
                "coalesced": dict(self.coalesced),
                "invalidations": self.invalidations,
                "by_kind": {
                    k: {
                        "hits": self.hits.get(k, 0),
                        "misses": self.misses.get(k, 0),
                        "coalesced": self.coalesced.get(k, 0),
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
            self.coalesced.clear()
            self.invalidations = 0


class ExecutionCache:
    """Identity-validated cache of derived execution artifacts.

    The cache never copies what it stores; callers must treat cached
    arrays as immutable (the engine's columns already are, by convention).

    Thread safety
    -------------
    One re-entrant lock serialises every structural operation — lookup,
    insert, invalidation, clear — and the metrics counters take their
    own lock, so concurrent sessions (and the parallel piece executor)
    can share the process-wide cache without lost updates or torn
    entries.  The lock is *never* held while a value is computed:
    :meth:`get_or_compute` releases it between the miss and the put, and
    concurrent misses on the same key are **single-flighted** through a
    per-key :class:`SingleFlight` — the first thread computes, every
    concurrent caller for the same key waits for that result instead of
    recomputing it (the pre-PR-10 behaviour was a documented "benign
    stampede, last put wins"; N clients hitting one cold query now
    compute once, not N times).  Distinct keys never wait on each other.
    The lock is re-entrant because weakref death callbacks call
    :meth:`_remove_key` and garbage collection can trigger them while
    the owning thread already holds the lock.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.metrics = CacheMetrics()
        self._lock = threading.RLock()
        self._flight = SingleFlight()
        # key -> (anchor weakrefs, anchor ids, value)
        self._entries: dict[tuple, tuple[tuple, tuple[int, ...], Any]] = {}
        # id(anchor) -> keys anchored on it, for invalidation / GC pruning
        self._anchor_keys: dict[int, set[tuple]] = {}

    # ------------------------------------------------------------------
    # Core protocol
    # ------------------------------------------------------------------
    def _key(
        self, kind: str, anchors: Sequence[Any], extra: Hashable
    ) -> tuple:
        return (kind, tuple(id(a) for a in anchors), extra)

    def _remove_key(self, key: tuple) -> None:
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return
            for anchor_id in entry[1]:
                keys = self._anchor_keys.get(anchor_id)
                if keys is not None:
                    keys.discard(key)
                    if not keys:
                        del self._anchor_keys[anchor_id]

    def get(self, kind: str, anchors: Sequence[Any], extra: Hashable = None):
        """Return the cached value or :data:`MISS`.

        Raises ``TypeError`` if ``extra`` is unhashable — callers caching
        user-supplied predicate values should catch it and skip caching.
        """
        if not self.enabled:
            return MISS
        key = self._key(kind, anchors, extra)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.metrics.record_miss(kind)
                return MISS
            refs, _, value = entry
            for ref, anchor in zip(refs, anchors):
                if ref() is not anchor:
                    self._remove_key(key)
                    self.metrics.record_miss(kind)
                    return MISS
            self.metrics.record_hit(kind)
            return value

    def put(
        self,
        kind: str,
        anchors: Sequence[Any],
        value: Any,
        extra: Hashable = None,
    ) -> None:
        """Store ``value`` keyed on the anchors' identities.

        Anchors that do not support weak references make the entry
        unstorable; the put is silently skipped (the cache is an
        optimisation, never a requirement).
        """
        if not self.enabled:
            return
        key = self._key(kind, anchors, extra)

        def _on_death(_ref, key=key, cache_ref=weakref.ref(self)):
            cache = cache_ref()
            if cache is not None:
                cache._remove_key(key)

        try:
            refs = tuple(weakref.ref(a, _on_death) for a in anchors)
        except TypeError:
            return
        anchor_ids = tuple(id(a) for a in anchors)
        with self._lock:
            self._remove_key(key)
            self._entries[key] = (refs, anchor_ids, value)
            for anchor_id in anchor_ids:
                self._anchor_keys.setdefault(anchor_id, set()).add(key)

    def get_or_compute(
        self,
        kind: str,
        anchors: Sequence[Any],
        compute: Callable[[], Any],
        extra: Hashable = None,
    ):
        """Cached value for the key, computing and storing it on a miss.

        The cache lock is not held across ``compute()``, and concurrent
        misses on the same key are single-flighted: exactly one caller
        computes (and puts), every concurrent caller for the same key
        blocks on that computation and shares its value (counted under
        ``metrics.coalesced``).  Distinct keys proceed independently, so
        one expensive computation never serialises unrelated cache
        users.  The caller's ``compute`` must not re-enter the cache
        with the same key.
        """
        value = self.get(kind, anchors, extra)
        if value is not MISS:
            return value
        key = self._key(kind, anchors, extra)

        def _compute_and_put() -> Any:
            computed = compute()
            self.put(kind, anchors, computed, extra)
            return computed

        value, leader = self._flight.do(key, _compute_and_put)
        if not leader:
            self.metrics.record_coalesced(kind)
        return value

    def entries_for_anchor(
        self, kind: str, anchor: Any
    ) -> list[tuple[Hashable, Any]]:
        """``(extra, value)`` pairs of kind ``kind`` anchored on ``anchor``.

        Used by the incremental-append listeners to enumerate which
        layouts (``extra`` is ``chunk_rows`` for the zone-map kinds) have
        materialised summaries worth extending.  Only entries whose
        weakref still resolves to this exact object are returned (id
        reuse guard, as in :meth:`invalidate_object`).
        """
        out: list[tuple[Hashable, Any]] = []
        with self._lock:
            keys = self._anchor_keys.get(id(anchor))
            for key in list(keys or ()):
                if key[0] != kind:
                    continue
                entry = self._entries.get(key)
                if entry is not None and any(r() is anchor for r in entry[0]):
                    out.append((key[2], entry[2]))
        return out

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_object(self, obj: Any) -> int:
        """Drop every entry anchored on ``obj``; returns entries dropped.

        Invalidation listeners fire regardless of how many entries were
        anchored here: a listener may hold state for objects the cache
        never cached.
        """
        with self._lock:
            keys = self._anchor_keys.get(id(obj))
            dropped = 0
            for key in list(keys or ()):
                entry = self._entries.get(key)
                # id() reuse guard: only drop entries whose weakref still
                # resolves to this exact object.
                if entry is not None and any(r() is obj for r in entry[0]):
                    self._remove_key(key)
                    dropped += 1
        if dropped:
            self.metrics.record_invalidations(dropped)
        for listener in _INVALIDATION_LISTENERS:
            listener(obj)
        return dropped

    def invalidate_table(self, table: Any) -> int:
        """Drop entries anchored on a table or any of its columns."""
        dropped = self.invalidate_object(table)
        column = getattr(table, "column", None)
        names = getattr(table, "column_names", None)
        if callable(column) and names is not None:
            for name in names:
                dropped += self.invalidate_object(column(name))
        bitmask = getattr(table, "bitmask", None)
        if bitmask is not None:
            dropped += self.invalidate_object(bitmask)
        return dropped

    def clear(self) -> None:
        """Drop every entry (counters are kept; use ``metrics.reset()``)."""
        with self._lock:
            self._entries.clear()
            self._anchor_keys.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: Process-wide cache shared by the executor, expression evaluation, and
#: join resolution.  Entries are keyed by object identity (validated with
#: weak references), so unrelated databases sharing the cache can never
#: read each other's artifacts.
_GLOBAL_CACHE = ExecutionCache()


def get_cache() -> ExecutionCache:
    """The process-wide execution cache."""
    return _GLOBAL_CACHE


def execution_cache_metrics() -> CacheMetrics:
    """Hit/miss counters of the process-wide execution cache."""
    return _GLOBAL_CACHE.metrics


__all__ = [
    "MISS",
    "AppendEvent",
    "CacheMetrics",
    "ExecutionCache",
    "SingleFlight",
    "add_append_listener",
    "add_invalidation_listener",
    "execution_cache_metrics",
    "get_cache",
    "notify_append",
]
