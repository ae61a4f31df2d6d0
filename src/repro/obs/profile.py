"""Per-query profiles: one structured record of how a query was served.

A :class:`QueryProfile` is assembled by the middleware session *after*
the answer is computed (``session.sql(..., profile=True)``), from two
write-only channels the engine filled in along the way:

* the span tree (:mod:`repro.obs.trace`) — parse → plan → §4.2.2
  rewrite → per-piece execution → combine;
* the memo counter delta (:class:`~repro.engine.cache.CacheMetrics`:
  per-column memos such as ``predicate_mask`` and the session's
  ``sql_parse``/``plan``) — hits/misses by kind attributable to this
  query (process-wide counters, so concurrent
  sessions make the delta approximate; single-session use is exact).

``to_dict`` is strict-JSON-safe (non-finite floats become ``null`` via
:mod:`repro.obs.jsonsafe`), which is what ``--profile-json`` writes and
CI uploads next to the ``BENCH_*.json`` artifacts.
"""

from __future__ import annotations

import math

from repro.obs.jsonsafe import json_safe
from repro.obs.trace import Span


def _finite_or_none(value: float | None) -> float | None:
    """``value`` when it is a finite number, else ``None``."""
    if value is None or not math.isfinite(value):
        return None
    return value


def cache_delta(before: dict, after: dict) -> dict:
    """Per-kind hit/miss delta between two ``CacheMetrics`` views.

    Accepts the cheap ``counts()`` dicts (preferred on the per-query
    hot path) or full ``snapshot()``s — only ``"hits"``/``"misses"``
    are read.
    """
    kinds = sorted(set(after["hits"]) | set(after["misses"]))
    delta: dict[str, dict[str, int]] = {}
    for kind in kinds:
        hits = after["hits"].get(kind, 0) - before["hits"].get(kind, 0)
        misses = after["misses"].get(kind, 0) - before["misses"].get(kind, 0)
        if hits or misses:
            delta[kind] = {"hits": hits, "misses": misses}
    return delta


class QueryProfile:
    """Everything observed while serving one query.

    Attributes
    ----------
    sql, mode, technique:
        The query text, execution mode, and installed technique name
        (``None`` when no technique was involved).
    trace:
        Root :class:`~repro.obs.trace.Span` of the query's lifecycle.
    approx_seconds / exact_seconds:
        Wall-clock seconds per side (``None`` for sides not run).
    speedup:
        Exact over approximate seconds; ``None`` when either timing is
        missing or zero (never NaN — see ``SessionResult.speedup``).
    rows_scanned:
        Sample rows charged by the §4.2.2 cost model (approx side).
    cache:
        Per-kind memo hit/miss delta for this query.
        Computed lazily from the raw ``CacheMetrics.counts()`` views
        captured around the query, so profiled queries that never
        render their profile pay ~nothing (the <5% overhead budget).
    """

    def __init__(
        self,
        sql: str,
        mode: str,
        technique: str | None = None,
        trace: Span | None = None,
        approx_seconds: float | None = None,
        exact_seconds: float | None = None,
        speedup: float | None = None,
        rows_scanned: int | None = None,
        cache_before: dict | None = None,
        cache_after: dict | None = None,
    ) -> None:
        self.sql = sql
        self.mode = mode
        self.technique = technique
        self.trace = trace
        self.approx_seconds = approx_seconds
        self.exact_seconds = exact_seconds
        self.speedup = speedup
        self.rows_scanned = rows_scanned
        self._cache_before = cache_before
        self._cache_after = cache_after
        self._cache: dict | None = None

    @property
    def cache(self) -> dict:
        """Per-kind hit/miss delta (computed on first access)."""
        if self._cache is None:
            if self._cache_before is None or self._cache_after is None:
                self._cache = {}
            else:
                self._cache = cache_delta(
                    self._cache_before, self._cache_after
                )
        return self._cache

    def phase_seconds(self) -> dict[str, float]:
        """Top-level lifecycle phases (direct children of the root)."""
        if self.trace is None:
            return {}
        return {span.name: span.seconds for span in self.trace.children}

    def to_dict(self) -> dict:
        """Strict-JSON-safe plain dict (the ``--profile-json`` payload)."""
        return json_safe(
            {
                "sql": self.sql,
                "mode": self.mode,
                "technique": self.technique,
                "approx_seconds": _finite_or_none(self.approx_seconds),
                "exact_seconds": _finite_or_none(self.exact_seconds),
                "speedup": _finite_or_none(self.speedup),
                "rows_scanned": self.rows_scanned,
                "phases": self.phase_seconds(),
                "cache": self.cache,
                "trace": None if self.trace is None else self.trace.to_dict(),
            }
        )

    def to_text(self) -> str:
        """Human-readable rendering (the CLI ``--profile`` body)."""
        lines = [f"query profile (mode={self.mode}"]
        if self.technique:
            lines[0] += f", technique={self.technique}"
        lines[0] += ")"
        phases = self.phase_seconds()
        if phases:
            lines.append(
                "  phases: "
                + "  ".join(
                    f"{name} {seconds * 1000:.2f} ms"
                    for name, seconds in phases.items()
                )
            )
        if self.rows_scanned is not None:
            lines.append(f"  rows scanned: {self.rows_scanned}")
        if self.cache:
            parts = [
                f"{kind} {c['hits']}/{c['hits'] + c['misses']}"
                for kind, c in sorted(self.cache.items())
            ]
            lines.append("  cache hits/lookups: " + ", ".join(parts))
        speedup = _finite_or_none(self.speedup)
        lines.append(
            "  speedup: "
            + (f"{speedup:.1f}x" if speedup is not None else "n/a")
        )
        if self.trace is not None:
            lines.append("  spans:")
            for child_line in self.trace.to_text(indent=2).splitlines():
                lines.append(child_line)
        return "\n".join(lines)


__all__ = ["QueryProfile", "cache_delta"]
