"""Accuracy metrics from Section 4.3 and memo hit/miss counters."""

from repro.engine.cache import CacheMetrics, execution_cache_metrics
from repro.metrics.error import (
    QueryAccuracy,
    pct_groups,
    rel_err,
    score,
    sq_rel_err,
)

__all__ = [
    "CacheMetrics",
    "QueryAccuracy",
    "execution_cache_metrics",
    "pct_groups",
    "rel_err",
    "score",
    "sq_rel_err",
]
