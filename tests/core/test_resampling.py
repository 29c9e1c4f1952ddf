"""Unit tests for resampling schemes."""

import numpy as np
import pytest

from repro.core import multinomial_resample, systematic_resample

ALL = [multinomial_resample, systematic_resample]


class TestCommonContract:
    @pytest.mark.parametrize("resampler", ALL)
    def test_output_shape_and_range(self, resampler, rng):
        w = np.array([0.1, 0.2, 0.3, 0.4])
        idx = resampler(w, 100, rng)
        assert idx.shape == (100,)
        assert idx.min() >= 0
        assert idx.max() < 4

    @pytest.mark.parametrize("resampler", ALL)
    def test_unnormalised_weights_accepted(self, resampler, rng):
        idx = resampler(np.array([1.0, 2.0, 7.0]), 50, rng)
        assert idx.max() <= 2

    @pytest.mark.parametrize("resampler", ALL)
    def test_zero_weight_never_selected(self, resampler, rng):
        w = np.array([0.5, 0.0, 0.5])
        idx = resampler(w, 200, rng)
        assert not np.any(idx == 1)

    @pytest.mark.parametrize("resampler", ALL)
    def test_degenerate_weight_always_selected(self, resampler, rng):
        w = np.array([0.0, 1.0, 0.0])
        idx = resampler(w, 20, rng)
        assert np.all(idx == 1)

    @pytest.mark.parametrize("resampler", ALL)
    def test_unbiasedness(self, resampler):
        """Expected selection counts are n*w within Monte-Carlo error."""
        w = np.array([0.1, 0.3, 0.6])
        counts = np.zeros(3)
        n_out, n_trials = 300, 40
        for t in range(n_trials):
            rng = np.random.Generator(np.random.PCG64(t))
            idx = resampler(w, n_out, rng)
            counts += np.bincount(idx, minlength=3)
        freq = counts / (n_out * n_trials)
        assert np.allclose(freq, w, atol=0.02)

    @pytest.mark.parametrize("resampler", ALL)
    def test_invalid_inputs_rejected(self, resampler, rng):
        with pytest.raises(ValueError):
            resampler(np.array([]), 5, rng)
        with pytest.raises(ValueError):
            resampler(np.array([0.5, 0.5]), 0, rng)
        with pytest.raises(ValueError):
            resampler(np.array([-0.1, 1.1]), 5, rng)
        with pytest.raises(ValueError):
            resampler(np.array([0.0, 0.0]), 5, rng)

    @pytest.mark.parametrize("resampler", ALL)
    def test_upsampling_allowed(self, resampler, rng):
        """Fig 3 draws 10k posterior from 500k prior; sizes may differ."""
        idx = resampler(np.array([0.5, 0.5]), 1000, rng)
        assert idx.shape == (1000,)


class TestVarianceOrdering:
    def _count_variance(self, resampler, n_trials=200):
        w = np.array([0.05, 0.15, 0.3, 0.5])
        n_out = 100
        counts = np.zeros((n_trials, 4))
        for t in range(n_trials):
            rng = np.random.Generator(np.random.PCG64(1000 + t))
            idx = resampler(w, n_out, rng)
            counts[t] = np.bincount(idx, minlength=4)
        return counts.var(axis=0).sum()

    def test_systematic_lower_variance_than_multinomial(self):
        assert (self._count_variance(systematic_resample)
                < self._count_variance(multinomial_resample))
