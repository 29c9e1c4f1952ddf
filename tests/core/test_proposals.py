"""Unit tests for jitter proposal kernels."""

import numpy as np
import pytest

from repro.core import (JitterKernel, JointJitter, UniformJitter,
                        paper_window_jitter)


class Identity(JitterKernel):
    """Propagates centers unchanged: a kernel whose output is known."""

    def propose(self, centers, rng):
        return np.asarray(centers, dtype=np.float64).copy()

    def logpdf(self, proposed, centers):
        return np.where(np.asarray(proposed) == np.asarray(centers),
                        0.0, -np.inf)


class TestUniformJitter:
    def test_symmetric_centering(self, rng):
        k = UniformJitter.symmetric(0.1)
        centers = np.full(5000, 1.0)
        out = k.propose(centers, rng)
        assert np.all(np.abs(out - 1.0) <= 0.1 + 1e-12)
        assert out.mean() == pytest.approx(1.0, abs=0.01)

    def test_asymmetric_upward_bias(self, rng):
        k = UniformJitter.asymmetric_upward(0.05, skew=3.0)
        centers = np.full(5000, 0.5)
        out = k.propose(centers, rng)
        # interval [-0.05, +0.15] -> mean shift +0.05
        assert out.mean() == pytest.approx(0.55, abs=0.01)
        assert out.max() <= 0.65 + 1e-12

    def test_reflection_keeps_support(self, rng):
        k = UniformJitter.symmetric(0.3, bounds=(0.0, 1.0))
        centers = np.full(2000, 0.05)
        out = k.propose(centers, rng)
        assert np.all(out >= 0.0)
        assert np.all(out <= 1.0)

    def test_reflection_at_upper_bound(self, rng):
        k = UniformJitter.asymmetric_upward(0.1, skew=5.0, bounds=(0.0, 1.0))
        out = k.propose(np.full(2000, 0.95), rng)
        assert np.all(out <= 1.0)

    def test_logpdf_inside_interval(self):
        k = UniformJitter(0.1, 0.3)
        lp = k.logpdf(np.array([1.2]), np.array([1.0]))
        assert lp[0] == pytest.approx(-np.log(0.4))

    def test_logpdf_outside_interval(self):
        k = UniformJitter(0.1, 0.1)
        assert k.logpdf(np.array([2.0]), np.array([1.0]))[0] == -np.inf

    def test_invalid_widths(self):
        with pytest.raises(ValueError):
            UniformJitter(0.0, 0.0)
        with pytest.raises(ValueError):
            UniformJitter(-0.1, 0.1)
        with pytest.raises(ValueError):
            UniformJitter.asymmetric_upward(0.1, skew=0.0)


class TestJointJitter:
    def test_propose_all_names(self, rng):
        j = JointJitter({"a": UniformJitter.symmetric(0.1),
                         "b": Identity()})
        out = j.propose({"a": np.ones(10), "b": np.zeros(10)}, rng)
        assert set(out) == {"a", "b"}
        assert np.array_equal(out["b"], np.zeros(10))

    def test_missing_center_rejected(self, rng):
        j = JointJitter({"a": Identity()})
        with pytest.raises(ValueError, match="missing"):
            j.propose({}, rng)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            JointJitter({})


class TestPaperJitter:
    def test_composition(self):
        j = paper_window_jitter()
        assert set(j.names) == {"theta", "rho"}

    def test_rho_kernel_skews_upward(self, rng):
        """Section V-B: higher density toward higher rho values."""
        j = paper_window_jitter(rho_width=0.02, rho_skew=3.0)
        out = j.propose({"theta": np.full(4000, 0.3),
                         "rho": np.full(4000, 0.5)}, rng)
        assert out["rho"].mean() > 0.5 + 0.01

    def test_theta_kernel_symmetric(self, rng):
        j = paper_window_jitter(theta_width=0.05)
        out = j.propose({"theta": np.full(4000, 0.3),
                         "rho": np.full(4000, 0.5)}, rng)
        assert out["theta"].mean() == pytest.approx(0.3, abs=0.005)

    def test_rho_never_leaves_unit_interval(self, rng):
        j = paper_window_jitter()
        out = j.propose({"theta": np.full(500, 0.3),
                         "rho": np.full(500, 0.995)}, rng)
        assert np.all(out["rho"] <= 1.0)
        assert np.all(out["rho"] >= 0.0)
