"""Unit tests for likelihoods."""

import numpy as np
import pytest

from repro.core import (GaussianTransformLikelihood,
                        NegativeBinomialLikelihood, PoissonLikelihood,
                        paper_likelihood, IDENTITY)
from repro.data import TimeSeries


class TestGaussianTransform:
    def test_perfect_match_maximises(self):
        lik = paper_likelihood()
        y = np.array([100.0, 200.0, 300.0])
        exact = lik.loglik(y, y)
        off = lik.loglik(y, y * 1.2)
        assert exact > off

    def test_matches_formula(self):
        lik = GaussianTransformLikelihood(sigma=2.0, transform=IDENTITY)
        y = np.array([1.0, 2.0])
        eta = np.array([0.0, 0.0])
        expected = (-0.5 * 2 * np.log(2 * np.pi * 4.0)
                    - 0.5 * (1.0 + 4.0) / 4.0)
        assert lik.loglik(y, eta) == pytest.approx(expected)

    def test_sqrt_transform_equalises_relative_error(self):
        """On sqrt scale, equal-multiple errors at different magnitudes
        should penalise the larger count more in absolute sqrt units."""
        lik = paper_likelihood()
        small = lik.loglik(np.array([10.0]), np.array([12.0]))
        large = lik.loglik(np.array([1000.0]), np.array([1200.0]))
        assert small > large

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            GaussianTransformLikelihood(sigma=0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            paper_likelihood().loglik(np.zeros(3), np.zeros(4))

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            paper_likelihood().loglik(np.array([]), np.array([]))

    def test_loglik_series_alignment_enforced(self):
        lik = paper_likelihood()
        a = TimeSeries(0, [1.0, 2.0])
        b = TimeSeries(1, [1.0, 2.0])
        with pytest.raises(ValueError, match="not aligned"):
            lik.loglik_series(a, b)

    def test_loglik_series_matches_arrays(self):
        lik = paper_likelihood()
        a = TimeSeries(5, [4.0, 9.0])
        b = TimeSeries(5, [1.0, 16.0])
        assert lik.loglik_series(a, b) == pytest.approx(
            lik.loglik(a.values, b.values))


class TestPoisson:
    def test_mode_at_observed(self):
        lik = PoissonLikelihood()
        y = np.array([50.0])
        assert lik.loglik(y, y) > lik.loglik(y, np.array([70.0]))

    def test_zero_intensity_floored(self):
        lik = PoissonLikelihood(epsilon=0.5)
        out = lik.loglik(np.array([0.0]), np.array([0.0]))
        assert np.isfinite(out)

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            PoissonLikelihood(epsilon=0.0)


class TestNegativeBinomial:
    def test_approaches_poisson_at_large_k(self):
        y = np.array([40.0, 60.0])
        eta = np.array([50.0, 50.0])
        nb = NegativeBinomialLikelihood(dispersion=1e6).loglik(y, eta)
        po = PoissonLikelihood().loglik(y, eta)
        assert nb == pytest.approx(po, rel=1e-3)

    def test_heavier_tails_than_poisson(self):
        """Overdispersed NB penalises outliers less than Poisson."""
        y = np.array([150.0])
        eta = np.array([50.0])
        nb = NegativeBinomialLikelihood(dispersion=2.0).loglik(y, eta)
        po = PoissonLikelihood().loglik(y, eta)
        assert nb > po

    def test_validation(self):
        with pytest.raises(ValueError):
            NegativeBinomialLikelihood(dispersion=0.0)
