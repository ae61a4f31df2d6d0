"""Query-lifecycle observability: spans, metrics registry, profiles.

The paper's premise is that an approximate answer costs what its small
samples cost (§3, §4.2.2).  This package is how the engine shows it per
query: :mod:`~repro.obs.trace` spans time every lifecycle phase,
:mod:`~repro.obs.registry` aggregates counters across queries, and
:mod:`~repro.obs.profile` assembles both — plus the execution-cache
delta — into one :class:`~repro.obs.profile.QueryProfile` per query.

Observability is answer-neutral by construction: the compute layers
only ever *write* to spans and the registry (lint rule RL009 bans
reads), and the profile-determinism sweep pins byte-identical answers
with profiling on or off.  See
``docs/internals.md`` §10.
"""

from repro.obs.jsonsafe import dumps, json_safe
from repro.obs.profile import QueryProfile, cache_delta
from repro.obs.registry import Histogram, MetricsRegistry, get_registry
from repro.obs.trace import NULL_SPAN, Span

__all__ = [
    "NULL_SPAN",
    "Histogram",
    "MetricsRegistry",
    "QueryProfile",
    "Span",
    "cache_delta",
    "dumps",
    "get_registry",
    "json_safe",
]
