"""Confidence intervals for sampled estimates.

The paper reports confidence intervals alongside approximate answers
(Section 4.2.2), noting that small group sampling makes them simple: the
only source of error is the single uniformly-sampled stratum, so standard
methods apply; this module provides the normal approximation.
"""

from __future__ import annotations

import functools
import math

from repro.errors import RuntimePhaseError

# Cephes ``ndtri`` (the routine behind ``scipy.special.ndtri`` and
# ``scipy.stats.norm.ppf``), ported operation for operation so that every
# quantile, and so every interval bound, is bitwise the same as scipy's.
_SQRT_2PI = 2.50662827463100050242e0
_EXP_MINUS_2 = 0.13533528323661269189
# |y - 1/2| <= 3/8.
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# sqrt(-2 log y) in [2, 8): y down to exp(-32).
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# sqrt(-2 log y) >= 8.
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
       3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6,
       6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0,
       1.37702099489081330271e0, 2.16236993594496635890e-1,
       1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """Horner evaluation of ``coef`` (highest degree first).

    A leading coefficient of 1.0 costs nothing in exactness
    (``1.0 * x == x``), so Cephes' ``p1evl`` is this with a 1.0 prepended.
    """
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtri(y: float) -> float:
    """Inverse of the standard normal CDF for ``y`` in ``[0, 1]``."""
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    negate = True
    if y > 1.0 - _EXP_MINUS_2:
        y = 1.0 - y
        negate = False
    if y > _EXP_MINUS_2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


@functools.lru_cache(maxsize=64)
def z_value(level: float) -> float:
    """Two-sided standard-normal critical value for a confidence level.

    Memoised: answers carry one interval per group per aggregate at a
    handful of levels.  Invalid levels raise every time (exceptions are
    not cached).  :func:`ndtri` equals ``scipy.stats.norm.ppf`` bit for
    bit without importing scipy, which would cost every server start
    about 0.3 s and 16 MiB.
    """
    if not 0.0 < level < 1.0:
        raise RuntimePhaseError(
            f"confidence level must be in (0, 1), got {level}"
        )
    return ndtri(0.5 + level / 2.0)


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

