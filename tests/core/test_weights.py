"""Unit tests for log-weight arithmetic."""

import numpy as np
import pytest

from repro.core import (effective_sample_size, logsumexp,
                        normalize_log_weights, weight_entropy, weighted_mean,
                        weighted_quantile)


class TestLogSumExp:
    def test_matches_naive_for_moderate_values(self):
        v = np.array([-1.0, 0.0, 2.0])
        assert logsumexp(v) == pytest.approx(np.log(np.exp(v).sum()))

    def test_stable_for_large_negative(self):
        v = np.array([-1000.0, -1001.0])
        out = logsumexp(v)
        assert np.isfinite(out)
        assert out == pytest.approx(-1000.0 + np.log(1 + np.exp(-1.0)))

    def test_all_neg_inf(self):
        assert logsumexp(np.array([-np.inf, -np.inf])) == -np.inf

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            logsumexp(np.array([]))

    def test_shift_invariance(self):
        v = np.array([-5.0, -3.0, -4.0])
        assert logsumexp(v + 100) == pytest.approx(logsumexp(v) + 100)


class TestNormalize:
    def test_sums_to_one(self):
        w = normalize_log_weights(np.array([-500.0, -501.0, -502.0]))
        assert w.sum() == pytest.approx(1.0)
        assert np.all(w > 0)

    def test_equal_weights_uniform(self):
        w = normalize_log_weights(np.full(10, -123.0))
        assert np.allclose(w, 0.1)

    def test_order_preserved(self):
        w = normalize_log_weights(np.array([-1.0, -2.0, -0.5]))
        assert w[2] > w[0] > w[1]

    def test_all_zero_weight_rejected(self):
        with pytest.raises(ValueError, match="zero weight"):
            normalize_log_weights(np.array([-np.inf, -np.inf]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            normalize_log_weights(np.array([0.0, np.nan]))

    def test_single_neg_inf_ok(self):
        w = normalize_log_weights(np.array([0.0, -np.inf]))
        assert w[0] == pytest.approx(1.0)
        assert w[1] == 0.0


class TestESS:
    def test_uniform_weights_full_ess(self):
        w = np.full(20, 1 / 20)
        assert effective_sample_size(w) == pytest.approx(20.0)

    def test_degenerate_weights_ess_one(self):
        w = np.zeros(10)
        w[3] = 1.0
        assert effective_sample_size(w) == pytest.approx(1.0)

    def test_intermediate_case(self):
        w = np.array([0.5, 0.5, 0.0, 0.0])
        assert effective_sample_size(w) == pytest.approx(2.0)


class TestEntropy:
    def test_uniform_max_entropy(self):
        w = np.full(8, 1 / 8)
        assert weight_entropy(w) == pytest.approx(np.log(8))

    def test_degenerate_zero_entropy(self):
        w = np.zeros(5)
        w[0] = 1.0
        assert weight_entropy(w) == 0.0


class TestWeightedStats:
    def test_weighted_mean(self):
        v = np.array([1.0, 3.0])
        w = np.array([0.25, 0.75])
        assert weighted_mean(v, w) == pytest.approx(2.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            weighted_mean(np.zeros(3), np.zeros(4))

    def test_quantile_shape_mismatch(self):
        with pytest.raises(ValueError, match="same shape"):
            weighted_quantile(np.zeros(3), np.full(4, 0.25), 0.5)

    def test_weighted_quantile_uniform_matches_numpy(self):
        rng = np.random.Generator(np.random.PCG64(0))
        v = rng.normal(size=500)
        w = np.full(500, 1 / 500)
        assert weighted_quantile(v, w, 0.5) == pytest.approx(
            np.median(v), abs=0.05)

    def test_weighted_quantile_respects_weights(self):
        v = np.array([0.0, 10.0])
        w = np.array([0.95, 0.05])
        assert weighted_quantile(v, w, 0.5) == 0.0
        assert weighted_quantile(v, w, 0.99) == 10.0

    def test_weighted_quantile_vector(self):
        v = np.arange(100.0)
        w = np.full(100, 0.01)
        out = weighted_quantile(v, w, np.array([0.1, 0.9]))
        assert out.shape == (2,)
        assert out[0] < out[1]

    def test_quantile_bounds_validated(self):
        with pytest.raises(ValueError):
            weighted_quantile(np.ones(3), np.ones(3) / 3, 1.5)

    def test_weighted_quantile_0d_array_returns_scalar(self):
        """Regression: a 0-d ndarray q is a scalar request, not a shape-(1,)
        vector (np.isscalar is False for 0-d arrays)."""
        v = np.arange(10.0)
        w = np.full(10, 0.1)
        out = weighted_quantile(v, w, np.asarray(0.5))
        assert isinstance(out, float)
        assert out == weighted_quantile(v, w, 0.5)

    def test_weighted_quantile_1d_single_entry_stays_array(self):
        v = np.arange(10.0)
        w = np.full(10, 0.1)
        out = weighted_quantile(v, w, np.array([0.5]))
        assert out.shape == (1,)

    def test_weighted_quantile_all_zero_weights_rejected(self):
        """Regression: an all-zero weight vector used to divide by zero in
        the CDF normalisation and return NaN; it must raise the same clear
        error its sibling weight functions produce."""
        with pytest.raises(ValueError, match="all zero"):
            weighted_quantile(np.arange(5.0), np.zeros(5), 0.5)
