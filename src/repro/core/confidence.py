"""Confidence intervals for sampled estimates.

The paper reports confidence intervals alongside approximate answers
(Section 4.2.2), noting that small group sampling makes them simple: the
only source of error is the single uniformly-sampled stratum, so standard
methods apply; this module provides the normal approximation.
"""

from __future__ import annotations

import functools
import math

from scipy.special import ndtri

from repro.errors import RuntimePhaseError


@functools.lru_cache(maxsize=64)
def z_value(level: float) -> float:
    """Two-sided standard-normal critical value for a confidence level.

    Memoised: answers carry one interval per group per aggregate at a
    handful of levels.  Invalid levels raise every time (exceptions are
    not cached).  ``ndtri`` is what ``scipy.stats.norm.ppf`` evaluates;
    importing it alone keeps ``scipy.stats`` (~0.5 s, ~25 MiB) off the
    start-up path.
    """
    if not 0.0 < level < 1.0:
        raise RuntimePhaseError(
            f"confidence level must be in (0, 1), got {level}"
        )
    return float(ndtri(0.5 + level / 2.0))


def normal_interval(
    estimate: float, variance: float, level: float = 0.95
) -> tuple[float, float]:
    """Normal-approximation interval ``estimate ± z·sqrt(variance)``."""
    if variance < 0:
        raise RuntimePhaseError(f"variance must be >= 0, got {variance}")
    half = z_value(level) * math.sqrt(variance)
    return (estimate - half, estimate + half)


def bernoulli_count_variance(
    sample_rows_in_group: int, rate: float
) -> float:
    """Variance of a scaled COUNT estimate from a rate-``p`` sample.

    A group with ``S`` sample rows is estimated as ``S / p``; under
    Bernoulli sampling ``Var(S/p) ≈ S (1 - p) / p²`` (plugging the observed
    ``S`` in for its expectation, as in Theorem 4.1's derivation).
    """
    if not 0.0 < rate <= 1.0:
        raise RuntimePhaseError(f"sampling rate must be in (0, 1], got {rate}")
    return sample_rows_in_group * (1.0 - rate) / (rate * rate)

