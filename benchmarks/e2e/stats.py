"""Order statistics used for every reported timing."""

from __future__ import annotations

import math
from typing import Sequence

#: A percentile is reported as supported only with this many samples
#: beyond it (choosing-metrics guide, section 1).
MIN_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with >= p% at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly beyond the nearest-rank p-th."""
    return n - max(1, math.ceil(p / 100.0 * n)) if n else 0
