import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from math_oracles import hellinger_by_quadrature, monte_carlo_bayes_error
from soqal.gate import (
    VAR_FLOOR,
    ChernoffResult,
    GateStats,
    chernoff_bound,
    decide_ask,
    fit_conditional_gaussians,
    hellinger,
)


def random_stats(rng, min_prior=0.1):
    prior0 = rng.uniform(min_prior, 1.0 - min_prior)
    return GateStats(
        mu0=rng.uniform(0.0, 1.0),
        var0=rng.uniform(1e-4, 0.05),
        mu1=rng.uniform(0.0, 1.0),
        var1=rng.uniform(1e-4, 0.05),
        prior0=prior0,
        prior1=1.0 - prior0,
        d_hellinger=0.5,
        valid=True,
    )


class TestFitConditionalGaussians:
    def test_two_point_classes_floor_variance(self):
        stats = fit_conditional_gaussians(
            np.array([0.1, 0.1, 0.9, 0.9]), np.array([0, 0, 1, 1])
        )
        assert stats.mu0 == pytest.approx(0.1)
        assert stats.mu1 == pytest.approx(0.9)
        assert stats.var0 == VAR_FLOOR
        assert stats.var1 == VAR_FLOOR
        assert stats.prior0 == 0.5 and stats.prior1 == 0.5
        assert stats.valid

    def test_missing_class_is_invalid_with_zero_distance(self):
        stats = fit_conditional_gaussians(np.array([0.2, 0.3, 0.4]), np.zeros(3, dtype=int))
        assert not stats.valid
        assert stats.d_hellinger == 0.0

    def test_single_sample_per_class_is_invalid(self):
        stats = fit_conditional_gaussians(np.array([0.2, 0.8]), np.array([0, 1]))
        assert not stats.valid

    def test_monte_carlo_recovery(self):
        rng = np.random.default_rng(10)
        o = np.concatenate([
            rng.normal(0.3, 0.1, size=1000),
            rng.normal(0.7, 0.1, size=1000),
        ])
        e = np.concatenate([np.zeros(1000, dtype=int), np.ones(1000, dtype=int)])
        stats = fit_conditional_gaussians(o, e)
        assert abs(stats.mu0 - 0.3) < 0.02
        assert abs(stats.mu1 - 0.7) < 0.02
        assert stats.valid

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            fit_conditional_gaussians(np.array([0.1, 0.2]), np.array([0]))


class TestHellinger:
    def test_identical_distributions(self):
        assert hellinger(0.4, 0.01, 0.4, 0.01) == 0.0

    def test_equal_variance_unit_sigma_gap(self):
        # Frozen from the quadrature oracle: sqrt(1 - exp(-1/8)).
        expected = math.sqrt(1.0 - math.exp(-0.125))
        got = hellinger(0.0, 0.04, 0.2, 0.04)  # delta mu = sigma = 0.2
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.34278724803499405, abs=1e-12)
        assert got == pytest.approx(hellinger_by_quadrature(0.0, 0.04, 0.2, 0.04), abs=1e-9)

    def test_disjoint_support_limit(self):
        assert hellinger(0.0, 0.01, 1e6, 0.01) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_under_swap(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            mu0, mu1 = rng.uniform(0, 1, size=2)
            var0, var1 = rng.uniform(1e-4, 0.2, size=2)
            assert hellinger(mu0, var0, mu1, var1) == pytest.approx(
                hellinger(mu1, var1, mu0, var0), abs=1e-15
            )

    def test_monotone_in_mean_gap_for_equal_variances(self):
        gaps = np.linspace(0.0, 3.0, 40)
        values = [hellinger(0.0, 0.04, g, 0.04) for g in gaps]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            mu0, mu1 = rng.uniform(0, 1, size=2)
            var0, var1 = rng.uniform(1e-4, 0.2, size=2)
            closed = hellinger(mu0, var0, mu1, var1)
            assert closed == pytest.approx(
                hellinger_by_quadrature(mu0, var0, mu1, var1), abs=1e-6
            )
            assert 0.0 <= closed <= 1.0

    def test_variance_below_floor_rejected(self):
        with pytest.raises(ValueError):
            hellinger(0.0, 1e-9, 1.0, 0.01)


class TestDecideAsk:
    def test_low_separation_always_asks(self):
        stats = GateStats(0.2, 0.01, 0.8, 0.01, 0.5, 0.5, d_hellinger=0.10, valid=True)
        for o in (0.01, 0.2, 0.5, 0.8, 0.99):
            assert decide_ask(o, stats, threshold=0.15) is True

    def test_density_comparison_when_trusted(self):
        stats = GateStats(0.2, 0.01, 0.8, 0.01, 0.5, 0.5, d_hellinger=0.9, valid=True)
        # Cross-check the rule against direct density evaluation.
        assert norm.pdf(0.9, 0.8, 0.1) > norm.pdf(0.9, 0.2, 0.1)
        assert decide_ask(0.9, stats, threshold=0.15) is True
        assert norm.pdf(0.1, 0.8, 0.1) < norm.pdf(0.1, 0.2, 0.1)
        assert decide_ask(0.1, stats, threshold=0.15) is False

    def test_threshold_one_always_asks(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            o = rng.uniform(0, 1, size=40)
            e = rng.integers(0, 2, size=40)
            if e.sum() < 2 or e.sum() > 38:
                continue
            stats = fit_conditional_gaussians(o, e)
            assert decide_ask(float(rng.uniform()), stats, threshold=1.0) is True

    def test_invalid_stats_always_ask(self):
        stats = fit_conditional_gaussians(np.array([0.5, 0.6]), np.array([0, 0]))
        assert decide_ask(0.5, stats, threshold=0.0) is True


class TestChernoffBound:
    def test_indistinguishable_classes(self):
        stats = GateStats(0.5, 0.02, 0.5, 0.02, 0.5, 0.5, 0.0, True)
        result = chernoff_bound(stats)
        assert result == ChernoffResult(bound=0.5, beta_star=0.5)

    def test_symmetric_closed_form(self):
        # Equal variances and priors: bound = 0.5 * exp(-gap^2 / (8 var)).
        stats = GateStats(0.3, 0.01, 0.7, 0.01, 0.5, 0.5, 0.8, True)
        result = chernoff_bound(stats)
        assert result.beta_star == pytest.approx(0.5, abs=1e-3)
        assert result.bound == pytest.approx(0.5 * math.exp(-0.16 / 0.08), rel=1e-9)

    def test_exponent_matches_chernoff_coefficient_integral(self):
        # exp(-k(b)) must equal the integral of f0^b * f1^(1-b); the bound is
        # only valid with this pairing of b against the two variances.
        rng = np.random.default_rng(40)
        for _ in range(20):
            stats = random_stats(rng)
            b = float(rng.uniform(0.05, 0.95))
            s0, s1 = math.sqrt(stats.var0), math.sqrt(stats.var1)

            def integrand(x):
                return norm.pdf(x, stats.mu0, s0) ** b * norm.pdf(
                    x, stats.mu1, s1
                ) ** (1.0 - b)

            coefficient, _ = integrate.quad(
                integrand, -20.0, 20.0, epsabs=1e-12, epsrel=1e-12
            )
            mixed = b * stats.var1 + (1.0 - b) * stats.var0
            k = b * (1.0 - b) * (stats.mu0 - stats.mu1) ** 2 / (2.0 * mixed)
            k += 0.5 * math.log(mixed / (stats.var0 ** (1.0 - b) * stats.var1**b))
            assert math.exp(-k) == pytest.approx(coefficient, rel=1e-9)

    def test_grid_minimum_beats_midpoint(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            stats = random_stats(rng)
            result = chernoff_bound(stats)
            mid_var = 0.5 * stats.var0 + 0.5 * stats.var1
            k_mid = (
                0.25 * (stats.mu0 - stats.mu1) ** 2 / (2.0 * mid_var)
                + 0.5 * math.log(mid_var / math.sqrt(stats.var0 * stats.var1))
            )
            bound_mid = math.sqrt(stats.prior0 * stats.prior1) * math.exp(-k_mid)
            assert result.bound <= bound_mid + 1e-12

    def test_bound_dominates_monte_carlo_bayes_error(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            stats = random_stats(rng)
            result = chernoff_bound(stats)
            error, se = monte_carlo_bayes_error(stats, 100_000, rng)
            assert result.bound >= error - 3.0 * se, (
                f"bound {result.bound:.4f} below Bayes error {error:.4f} "
                f"(se {se:.4f}) for {stats}"
            )

    def test_exponent_only_mode_agrees_in_symmetric_case(self):
        stats = GateStats(0.3, 0.01, 0.7, 0.01, 0.5, 0.5, 0.8, True)
        full = chernoff_bound(stats, mode="full-bound")
        expo = chernoff_bound(stats, mode="exponent-only")
        assert expo.beta_star == pytest.approx(full.beta_star, abs=1e-3)
        assert expo.bound == pytest.approx(full.bound, rel=1e-9)

    def test_invalid_stats_give_nan(self):
        stats = GateStats(0.2, 0.01, 0.8, 0.01, 1.0, 0.0, 0.0, valid=False)
        for mode in ("full-bound", "exponent-only"):
            result = chernoff_bound(stats, mode)
            assert math.isnan(result.bound) and math.isnan(result.beta_star)

    def test_unknown_mode_rejected(self):
        stats = GateStats(0.3, 0.01, 0.7, 0.01, 0.5, 0.5, 0.8, True)
        with pytest.raises(ValueError):
            chernoff_bound(stats, mode="fastest")
        with pytest.raises(ValueError):
            chernoff_bound(stats._replace(valid=False), mode="fastest")
