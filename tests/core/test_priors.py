"""Unit tests for prior distributions."""

import numpy as np
import pytest

from repro.core import (Beta, IndependentProduct, Uniform,
                        paper_first_window_prior)


class TestUniform:
    def test_samples_in_support(self, rng):
        d = Uniform(0.1, 0.5)
        x = d.sample(1000, rng)
        assert np.all((x >= 0.1) & (x <= 0.5))

    def test_logpdf_inside_outside(self):
        d = Uniform(0.0, 2.0)
        assert d.logpdf(1.0) == pytest.approx(-np.log(2.0))
        assert d.logpdf(3.0) == -np.inf

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Uniform(1.0, 1.0)

    def test_sample_mean_converges(self, rng):
        x = Uniform(0.0, 1.0).sample(5000, rng)
        assert x.mean() == pytest.approx(0.5, abs=0.03)


class TestBeta:
    def test_support(self, rng):
        x = Beta(4, 1).sample(1000, rng)
        assert np.all((x >= 0) & (x <= 1))

    def test_beta41_skews_high(self, rng):
        """The paper's rho prior favours high reporting probabilities."""
        x = Beta(4, 1).sample(5000, rng)
        assert x.mean() == pytest.approx(0.8, abs=0.02)

    def test_logpdf_matches_scipy(self):
        from scipy import stats
        d = Beta(2.0, 3.0)
        x = np.array([0.2, 0.7])
        assert np.allclose(d.logpdf(x), stats.beta.logpdf(x, 2, 3))

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            Beta(0, 1)


class TestIndependentProduct:
    def test_sample_shapes(self, rng):
        p = IndependentProduct({"a": Uniform(0, 1), "b": Beta(2, 2)})
        out = p.sample(50, rng)
        assert set(out) == {"a", "b"}
        assert out["a"].shape == (50,)

    def test_logpdf_adds_marginals(self):
        p = IndependentProduct({"a": Uniform(0, 2), "b": Uniform(0, 4)})
        lp = p.logpdf({"a": np.array([1.0]), "b": np.array([1.0])})
        assert lp[0] == pytest.approx(-np.log(2) - np.log(4))

    def test_logpdf_missing_param_rejected(self):
        p = IndependentProduct({"a": Uniform(0, 1)})
        with pytest.raises(ValueError, match="missing"):
            p.logpdf({})

    def test_marginal_accessor(self):
        u = Uniform(0, 1)
        p = IndependentProduct({"a": u})
        assert p.marginal("a") is u

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            IndependentProduct({})


class TestPaperPrior:
    def test_composition(self):
        p = paper_first_window_prior()
        assert set(p.names) == {"theta", "rho"}
        theta, rho = p.marginal("theta"), p.marginal("rho")
        assert isinstance(theta, Uniform)
        assert (theta.low, theta.high) == (0.1, 0.5)
        assert isinstance(rho, Beta)
        assert (rho.a, rho.b) == (4.0, 1.0)

    def test_matches_section_vb(self, rng):
        """theta ~ U(0.1,0.5); rho ~ Beta(4,1)."""
        p = paper_first_window_prior()
        theta = p.marginal("theta").sample(4000, rng)
        rho = p.marginal("rho").sample(4000, rng)
        assert theta.mean() == pytest.approx(0.3, abs=0.01)
        assert rho.mean() == pytest.approx(0.8, abs=0.02)
