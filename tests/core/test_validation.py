"""Unit tests for UQ validation utilities (SBC, coverage, CRPS)."""

import numpy as np
import pytest

from repro.core.validation import (crps, interval_coverage, posterior_rank,
                                   sbc_ranks_uniformity)


class TestPosteriorRank:
    def test_truth_below_all(self):
        assert posterior_rank(-10.0, np.arange(5.0)) == 0

    def test_truth_above_all(self):
        assert posterior_rank(10.0, np.arange(5.0)) == 5

    def test_middle(self):
        assert posterior_rank(2.5, np.arange(5.0)) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            posterior_rank(0.0, np.array([]))


class TestSbcUniformity:
    def test_uniform_ranks_pass(self, rng):
        ranks = rng.integers(0, 101, size=2000)
        out = sbc_ranks_uniformity(ranks, n_posterior=100)
        assert out["calibrated"]
        assert out["p_value"] > 0.01

    def test_overconfident_posterior_fails(self, rng):
        # Over-confident posteriors push truths into the extreme ranks.
        ranks = np.concatenate([rng.integers(0, 5, size=1000),
                                rng.integers(96, 101, size=1000)])
        out = sbc_ranks_uniformity(ranks, n_posterior=100)
        assert not out["calibrated"]

    def test_underdispersed_ranks_fail(self, rng):
        ranks = rng.integers(45, 56, size=2000)  # all mid-ranks
        out = sbc_ranks_uniformity(ranks, n_posterior=100)
        assert not out["calibrated"]

    @pytest.mark.parametrize("n_posterior", [10, 19, 625])
    def test_exactly_uniform_ranks_score_zero(self, n_posterior):
        # Every possible rank equally often: a perfect score even when the
        # n_posterior + 1 ranks do not split evenly across the bins.
        ranks = np.repeat(np.arange(n_posterior + 1), 200)
        out = sbc_ranks_uniformity(ranks, n_posterior=n_posterior, n_bins=10)
        assert out["statistic"] == 0.0
        assert out["p_value"] == 1.0
        assert out["calibrated"]
        assert sum(out["bin_counts"]) == ranks.size

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            sbc_ranks_uniformity(np.array([200]), n_posterior=100)
        with pytest.raises(ValueError):
            sbc_ranks_uniformity(np.array([1, 2]), n_posterior=100, n_bins=1)

    def test_exact_smc_pipeline_is_calibrated_on_gaussian_toy(self, rng):
        """End-to-end SBC on an analytically tractable importance sampler:
        prior N(0,1), likelihood N(y|x,1) — IS with prior proposal is exact,
        so SBC ranks must be uniform."""
        n_rep, n_draws, n_post = 300, 400, 100
        ranks = []
        for _ in range(n_rep):
            truth = rng.normal()
            y = truth + rng.normal()
            draws = rng.normal(size=n_draws)
            logw = -0.5 * (y - draws) ** 2
            w = np.exp(logw - logw.max())
            w /= w.sum()
            post = rng.choice(draws, size=n_post, replace=True, p=w)
            ranks.append(posterior_rank(truth, post))
        out = sbc_ranks_uniformity(np.array(ranks), n_posterior=n_post,
                                   n_bins=6)
        assert out["calibrated"], out


class TestIntervalCoverage:
    def test_perfect_coverage(self):
        t = np.array([1.0, 2.0])
        assert interval_coverage(t, t - 1, t + 1) == 1.0

    def test_zero_coverage(self):
        t = np.array([5.0])
        assert interval_coverage(t, np.array([0.0]), np.array([1.0])) == 0.0

    def test_nominal_coverage_of_gaussian_intervals(self, rng):
        truths = rng.normal(size=4000)
        lo = np.full(4000, -1.6449)
        hi = np.full(4000, 1.6449)
        assert interval_coverage(truths, lo, hi) == pytest.approx(0.9,
                                                                  abs=0.02)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            interval_coverage(np.array([0.0]), np.array([1.0]),
                              np.array([0.0]))


class TestCRPS:
    def test_point_mass_equals_absolute_error(self):
        samples = np.full(1000, 3.0)
        assert crps(samples, 5.0) == pytest.approx(2.0)

    def test_minimised_at_truth(self, rng):
        samples = rng.normal(0.0, 1.0, size=5000)
        assert crps(samples, 0.0) < crps(samples, 2.0)

    def test_sharper_correct_forecast_scores_better(self, rng):
        sharp = rng.normal(0.0, 0.5, size=5000)
        diffuse = rng.normal(0.0, 2.0, size=5000)
        assert crps(sharp, 0.0) < crps(diffuse, 0.0)

    def test_known_gaussian_value(self, rng):
        """CRPS of N(0,1) at truth 0 is sigma*(2/sqrt(2pi) - 1/sqrt(pi))."""
        samples = rng.normal(0.0, 1.0, size=200_000)
        expected = 2 / np.sqrt(2 * np.pi) - 1 / np.sqrt(np.pi)
        assert crps(samples, 0.0) == pytest.approx(expected, rel=0.02)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            crps(np.array([]), 0.0)
