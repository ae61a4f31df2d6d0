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

This is the one mechanism that keeps derived state fresh: join
positions, predicate masks, zone maps and provenance sketches are all
entries here.  On top of the automatic lifetime management, every path
that replaces or removes a table
(:meth:`repro.engine.database.Database.append_rows`,
:meth:`repro.engine.database.Database.drop_table`,
:meth:`repro.core.smallgroup.SmallGroupSampling.insert_rows`) calls
:meth:`ExecutionCache.invalidate_table` explicitly so the replaced
table's artifacts are released immediately rather than at garbage
collection; the new table's are built on first read.

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


@dataclass
class CacheMetrics:
    """Hit/miss counters per cache kind (``join_positions``,
    ``predicate_mask``, ``column_codes``, ``joined_column``, ``zone_map``,
    ``zone_map_bitmask``, ``sql_parse``, ``plan``,
    ``provenance_sketch`` ...).

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
    own lock, so concurrent sessions (the server's handler threads) can
    share the process-wide cache without lost updates or torn
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

    def __init__(self) -> None:
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

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_object(self, obj: Any) -> int:
        """Drop every entry anchored on ``obj``; returns entries dropped."""
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
    "CacheMetrics",
    "ExecutionCache",
    "SingleFlight",
    "execution_cache_metrics",
    "get_cache",
]
