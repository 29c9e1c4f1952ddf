"""Unit tests for the square-root count transform and the binomial bias
model."""

import numpy as np
import pytest

from repro.core import BinomialBiasModel, paper_likelihood


class TestTransforms:
    """The likelihood's square-root step."""

    def test_negative_rejected(self):
        lik = paper_likelihood()
        with pytest.raises(ValueError, match="non-negative"):
            lik.loglik_batch(np.array([-1.0, 4.0]), np.array([[1.0, 4.0]]))
        with pytest.raises(ValueError, match="non-negative"):
            lik.loglik_batch(np.array([1.0, 4.0]), np.array([[1.0, -4.0]]))

    def test_sqrt_variance_stabilises_poisson(self, rng):
        """Var(sqrt(Poisson(lam))) ~ 1/4 regardless of lam."""
        for lam in (10.0, 100.0, 1000.0):
            x = rng.poisson(lam, size=20_000)
            assert np.sqrt(x).var() == pytest.approx(0.25, rel=0.15)


class TestBinomialBiasModel:
    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            BinomialBiasModel("approximate")

    def test_mean_mode_deterministic(self):
        m = BinomialBiasModel("mean")
        out = m.apply_batch(np.array([[10.0, 20.0]]), np.array([0.5]))
        assert np.allclose(out, [[5.0, 10.0]])

    def test_sample_mode_requires_rng(self):
        m = BinomialBiasModel("sample")
        with pytest.raises(ValueError, match="rng"):
            m.apply_batch(np.array([[10.0]]), np.array([0.5]))

    def test_sample_bounded_by_true(self, rng):
        m = BinomialBiasModel("sample")
        true = np.full((4, 100), 50.0)
        out = m.apply_batch(true, np.full(4, 0.7), rng)
        assert np.all(out <= 50)
        assert np.all(out >= 0)

    def test_sample_mean_matches_rho(self, rng):
        m = BinomialBiasModel("sample")
        true = np.full((2, 2500), 100.0)
        out = m.apply_batch(true, np.full(2, 0.6), rng)
        assert out.mean() == pytest.approx(60.0, rel=0.02)

    def test_rho_validation(self, rng):
        m = BinomialBiasModel("sample")
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="rho"):
                m.apply_batch(np.array([[10.0]]), np.array([bad]), rng)

    def test_negative_counts_rejected(self, rng):
        m = BinomialBiasModel("sample")
        with pytest.raises(ValueError, match="non-negative"):
            m.apply_batch(np.array([[-5.0]]), np.array([0.5]), rng)
