"""Tests for confidence-interval machinery, including a coverage study."""

import numpy as np
import pytest

from repro.core.answer import GroupEstimate
from repro.core.confidence import (
    bernoulli_count_variance,
    normal_interval,
    z_value,
)
from repro.errors import RuntimePhaseError


class TestZValue:
    def test_standard_levels(self):
        assert z_value(0.95) == pytest.approx(1.959964, abs=1e-5)
        assert z_value(0.99) == pytest.approx(2.575829, abs=1e-5)

    @pytest.mark.parametrize("level", [0.8, 0.9, 0.95, 0.99, 0.999])
    def test_equals_scipy_stats_norm_ppf(self, level):
        # The product imports only scipy.special.ndtri; norm.ppf is the
        # same function, so the swap may not move a single interval bound.
        from scipy.stats import norm

        assert z_value(level) == norm.ppf(0.5 + level / 2.0)

    def test_bounds(self):
        with pytest.raises(RuntimePhaseError):
            z_value(0.0)
        with pytest.raises(RuntimePhaseError):
            z_value(1.0)


class TestNormalInterval:
    def test_symmetric(self):
        lo, hi = normal_interval(100.0, 25.0, 0.95)
        assert lo == pytest.approx(100.0 - 1.96 * 5, abs=0.01)
        assert hi == pytest.approx(100.0 + 1.96 * 5, abs=0.01)

    def test_zero_variance_degenerate(self):
        assert normal_interval(7.0, 0.0) == (7.0, 7.0)

    def test_negative_variance_rejected(self):
        with pytest.raises(RuntimePhaseError):
            normal_interval(0.0, -1.0)


class TestBernoulliVariance:
    def test_formula(self):
        # S=10 sample rows at p=0.1: Var = 10 * 0.9 / 0.01 = 900.
        assert bernoulli_count_variance(10, 0.1) == pytest.approx(900.0)

    def test_full_sample_no_variance(self):
        assert bernoulli_count_variance(10, 1.0) == 0.0

    def test_rate_bounds(self):
        with pytest.raises(RuntimePhaseError):
            bernoulli_count_variance(1, 0.0)


class TestGroupEstimate:
    def test_exact_interval_degenerate(self):
        estimate = GroupEstimate(value=42.0, variance=100.0, exact=True)
        assert estimate.confidence_interval() == (42.0, 42.0)

    def test_sampled_interval(self):
        estimate = GroupEstimate(value=42.0, variance=4.0)
        lo, hi = estimate.confidence_interval(0.95)
        assert lo < 42.0 < hi

    def test_count_ci_coverage_from_sampling(self):
        """End-to-end: scaled COUNT estimates cover the truth ~95%."""
        rng = np.random.default_rng(1)
        n, p, trials = 5000, 0.05, 400
        covered = 0
        for _ in range(trials):
            sample_rows = rng.binomial(n, p)
            estimate = sample_rows / p
            variance = bernoulli_count_variance(sample_rows, p)
            lo, hi = GroupEstimate(estimate, variance).confidence_interval()
            covered += lo <= n <= hi
        assert covered / trials > 0.90
