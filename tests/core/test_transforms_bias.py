"""Unit tests for count transforms and the binomial bias model."""

import numpy as np
import pytest

from repro.core import ANSCOMBE, IDENTITY, LOG1P, SQRT, BinomialBiasModel
from repro.data import TimeSeries


class TestTransforms:
    @pytest.mark.parametrize("transform", [SQRT, LOG1P, IDENTITY, ANSCOMBE])
    def test_round_trip(self, transform):
        x = np.array([0.0, 1.0, 10.0, 1234.0])
        assert np.allclose(transform.inverse(transform(x)), x, atol=1e-9)

    @pytest.mark.parametrize("transform", [SQRT, LOG1P, ANSCOMBE])
    def test_monotone(self, transform):
        x = np.linspace(0, 100, 50)
        y = transform(x)
        assert np.all(np.diff(y) > 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SQRT(np.array([-1.0]))

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
        out = m.apply(np.array([10.0, 20.0]), 0.5)
        assert np.allclose(out, [5.0, 10.0])

    def test_sample_mode_requires_rng(self):
        m = BinomialBiasModel("sample")
        with pytest.raises(ValueError, match="rng"):
            m.apply(np.array([10.0]), 0.5)

    def test_sample_bounded_by_true(self, rng):
        m = BinomialBiasModel("sample")
        true = np.full(100, 50.0)
        out = m.apply(true, 0.7, rng)
        assert np.all(out <= 50)
        assert np.all(out >= 0)

    def test_sample_mean_matches_rho(self, rng):
        m = BinomialBiasModel("sample")
        true = np.full(5000, 100.0)
        out = m.apply(true, 0.6, rng)
        assert out.mean() == pytest.approx(60.0, rel=0.02)

    def test_rho_validation(self, rng):
        m = BinomialBiasModel("sample")
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="rho"):
                m.apply(np.array([10.0]), bad, rng)

    def test_negative_counts_rejected(self, rng):
        m = BinomialBiasModel("sample")
        with pytest.raises(ValueError, match="non-negative"):
            m.apply(np.array([-5.0]), 0.5, rng)

    def test_apply_series_keeps_day_axis(self, rng):
        m = BinomialBiasModel("mean")
        ts = TimeSeries(10, [100.0, 200.0], name="cases")
        out = m.apply_series(ts, 0.5, rng)
        assert out.start_day == 10
        assert out.name == "observed_cases"
