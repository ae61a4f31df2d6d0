"""Process-wide metrics registry: counters and histograms.

Where a :class:`~repro.obs.trace.Span` tree describes *one* query, the
:class:`MetricsRegistry` aggregates *across* queries — total pieces
executed, per-mode query counts, reservoir updates — the way
:class:`~repro.engine.cache.CacheMetrics` already aggregates memo
lookups.  BlinkDB-style systems feed exactly this kind of per-query
error/latency profile back into sample selection; the registry is the
substrate such workload-adaptive tuning will read.

Both instrument kinds are thread-safe (one registry lock; the
server's handler threads increment counters concurrently) and snapshot-able
into a strict-JSON plain dict (non-finite observations are recorded
under a ``non_finite`` count rather than poisoning sums with NaN).
Like spans, the registry is a write-only channel for the compute
layers: nothing in ``repro/engine/``/``repro/core/`` reads it back, so
metrics can never change answers (the profile-determinism sweep in
``tests/test_obs.py`` checks it).
"""

from __future__ import annotations

import bisect
import math
import threading

from repro.errors import InternalError

#: Histogram bucket upper bounds (seconds-oriented log scale); the last
#: implicit bucket is +inf.
DEFAULT_BUCKET_BOUNDS: tuple[float, ...] = (
    1e-5,
    1e-4,
    1e-3,
    1e-2,
    1e-1,
    1.0,
    10.0,
    100.0,
)


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max summaries.

    Mutated only while the owning registry's lock is held.

    Strict-JSON by construction — the ``allow_nan=False`` contract on
    every ``.json`` artifact is discharged *here*, not by a downstream
    serialiser: bucket bounds must be finite (the overflow bucket is the
    implicit ``le_inf`` — an explicit ``inf`` bound would collide with
    it and smuggle an ``Infinity`` token into the snapshot), non-finite
    observations are diverted to the ``non_finite`` count before they
    can poison ``sum``/``min``/``max``, and the empty-histogram mean is
    ``None`` rather than ``0/0``.
    """

    __slots__ = (
        "bounds",
        "bucket_counts",
        "count",
        "total",
        "minimum",
        "maximum",
        "non_finite",
    )

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKET_BOUNDS):
        if not all(math.isfinite(b) for b in bounds):
            raise InternalError(
                f"histogram bucket bounds must be finite, got {bounds!r}; "
                "the overflow bucket is the implicit le_inf"
            )
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise InternalError(
                f"histogram bucket bounds must increase, got {bounds!r}"
            )
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None
        self.non_finite = 0

    def observe(self, value: float) -> None:
        value = float(value)
        if value != value or value in (float("inf"), float("-inf")):
            self.non_finite += 1
            return
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def snapshot(self) -> dict:
        buckets = {
            f"le_{bound:g}": count
            for bound, count in zip(self.bounds, self.bucket_counts)
        }
        buckets["le_inf"] = self.bucket_counts[-1]
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.total / self.count if self.count else None,
            "non_finite": self.non_finite,
            "buckets": buckets,
        }


class MetricsRegistry:
    """Thread-safe named counters and histograms.

    Names are dotted strings (``"session.exact_seconds"``,
    ``"combiner.pieces_executed"``); instruments are created lazily on
    first write.  :meth:`snapshot` returns a plain strict-JSON dict (the
    ``repro stats`` payload); :meth:`reset` zeroes everything (tests,
    benchmark passes).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Write API (compute layers may call these — and only these)
    # ------------------------------------------------------------------
    def incr(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (created at 0).

        Non-finite increments are diverted to the
        ``obs.non_finite_writes`` counter instead of turning the counter
        into NaN/inf — the snapshot must stay strict-JSON at the source,
        not rely on a serialiser scrubbing it later.
        """
        with self._lock:
            if not math.isfinite(value):
                self._counters["obs.non_finite_writes"] = (
                    self._counters.get("obs.non_finite_writes", 0) + 1
                )
                return
            self._counters[name] = self._counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        """Record one observation in histogram ``name``."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(value)

    # ------------------------------------------------------------------
    # Read API (presentation/profile layers only)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never written)."""
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """Plain-dict view of every instrument (strict-JSON-safe)."""
        from repro.obs.jsonsafe import json_safe

        with self._lock:
            return json_safe(
                {
                    "counters": dict(sorted(self._counters.items())),
                    "histograms": {
                        name: hist.snapshot()
                        for name, hist in sorted(self._histograms.items())
                    },
                }
            )

    def reset(self) -> None:
        """Drop every instrument (counters and histograms)."""
        with self._lock:
            self._counters.clear()
            self._histograms.clear()


#: Process-wide registry shared by every session and engine layer, like
#: the memos' ``CacheMetrics``.
_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide :class:`MetricsRegistry`."""
    return _GLOBAL_REGISTRY


__all__ = [
    "DEFAULT_BUCKET_BOUNDS",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
]
