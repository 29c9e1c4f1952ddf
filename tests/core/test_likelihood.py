"""Unit tests for the Gaussian-on-sqrt-counts likelihood."""

import numpy as np
import pytest

from repro.core import GaussianTransformLikelihood, paper_likelihood


class TestGaussianTransform:
    def test_perfect_match_maximises(self):
        lik = paper_likelihood()
        y = np.array([100.0, 200.0, 300.0])
        exact, off = lik.loglik_batch(y, np.vstack([y, y * 1.2]))
        assert exact > off

    def test_matches_formula(self):
        lik = GaussianTransformLikelihood(sigma=2.0)
        y = np.array([1.0, 4.0])
        eta = np.array([[0.0, 0.0]])
        # sqrt residuals 1 and 2
        expected = (-0.5 * 2 * np.log(2 * np.pi * 4.0)
                    - 0.5 * (1.0 + 4.0) / 4.0)
        assert lik.loglik_batch(y, eta) == pytest.approx([expected])

    def test_sqrt_transform_equalises_relative_error(self):
        """On sqrt scale, equal-multiple errors at different magnitudes
        should penalise the larger count more in absolute sqrt units."""
        lik = paper_likelihood()
        small = lik.loglik_batch(np.array([10.0]), np.array([[12.0]]))
        large = lik.loglik_batch(np.array([1000.0]), np.array([[1200.0]]))
        assert small > large

    def test_sigma_validation(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="sigma"):
                GaussianTransformLikelihood(sigma=bad)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="day-axis"):
            paper_likelihood().loglik_batch(np.zeros(3), np.zeros((1, 4)))

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            paper_likelihood().loglik_batch(np.array([]), np.zeros((1, 0)))
