"""Shared state of the engine's memos: counters, generation, single-flight.

Derived execution state — dense grouping codes, star-join positions,
gathered dimension columns, WHERE masks — is recomputable from a stored
column and reused across a query stream, the way production AQP
middleware (BlinkDB-style systems) must to serve repeated workloads.
It lives on the column it describes (:meth:`Column.derived
<repro.engine.column.Column.derived>`): a column is an immutable
snapshot and an append publishes new columns, so a memo can never
describe rows its column does not hold, and it dies with its column.
No identity keys, weak references or invalidation calls are needed.

This module keeps what the memos share: per-kind hit/miss counters
(:class:`CacheMetrics`, re-exported through :mod:`repro.metrics`) and
the generation :meth:`DerivedState.clear` bumps so cold measurements
recompute.  :class:`SingleFlight` is the in-flight deduplication the
session parse/plan memos and the server's request dedup use.
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Callable, Hashable
from dataclasses import dataclass, field
from typing import Any


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

    This is the primitive behind the session parse/plan memos and the
    serving layer's in-flight request dedup.  Keys must be hashable;
    ``fn`` must not recursively call ``do`` with the same key on the
    same thread (the second call would wait on itself).

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
    ``predicate_mask``, ``column_codes``, ``joined_column``,
    ``sql_parse``, ``plan`` ...).

    Counter updates take a private lock: dict read-modify-write is not
    atomic under free-running threads, and hits + misses must equal the
    number of lookups even under concurrent hammering.
    """

    hits: dict[str, int] = field(default_factory=dict)
    misses: dict[str, int] = field(default_factory=dict)
    #: Lookups that missed but were served by another thread's in-flight
    #: computation (single-flight coalescing) instead of recomputing.
    coalesced: dict[str, int] = field(default_factory=dict)
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
        ``invalidations`` is always 0: memos die with their columns, so
        nothing is ever invalidated (the key stays for report readers).
        """
        with self._lock:
            kinds = sorted(set(self.hits) | set(self.misses))
            return {
                "hits": dict(self.hits),
                "misses": dict(self.misses),
                "coalesced": dict(self.coalesced),
                "invalidations": 0,
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


class DerivedState:
    """Process-wide controls of the per-column memos (:meth:`Column.derived`).

    The memos themselves live on the columns they describe; this object
    only holds what they share: the hit/miss :attr:`metrics` and the
    *generation* a memo must have been filled under to be served.
    """

    def __init__(self) -> None:
        self.metrics = CacheMetrics()
        self._generations = itertools.count()
        self.generation = next(self._generations)

    def clear(self) -> None:
        """Make every memo filled so far stale: the next read recomputes.

        Counters are kept (use ``metrics.reset()``).  Cold-timing
        harnesses and cold-vs-warm comparisons call this between runs.
        """
        self.generation = next(self._generations)


_DERIVED_STATE = DerivedState()


def get_cache() -> DerivedState:
    """The process-wide memo controls (metrics and :meth:`~DerivedState.clear`)."""
    return _DERIVED_STATE


def execution_cache_metrics() -> CacheMetrics:
    """Hit/miss counters of the per-column memos and session memos."""
    return _DERIVED_STATE.metrics


__all__ = [
    "CacheMetrics",
    "DerivedState",
    "SingleFlight",
    "execution_cache_metrics",
    "get_cache",
]
