"""Unit tests for synthetic observation generation (binomial thinning)."""

import numpy as np
import pytest

from repro.data import PiecewiseConstant, TimeSeries, binomial_thin


def counts(n=50, scale=100.0, start=0):
    rng = np.random.Generator(np.random.PCG64(7))
    return TimeSeries(start, rng.poisson(scale, size=n).astype(float),
                      name="cases")


class TestBinomialThin:
    def test_observed_never_exceeds_true(self, rng):
        ts = counts()
        obs = binomial_thin(ts, 0.7, rng)
        assert np.all(obs.values <= ts.values)
        assert np.all(obs.values >= 0)

    def test_rho_one_is_identity(self, rng):
        ts = counts()
        obs = binomial_thin(ts, 1.0, rng)
        assert np.array_equal(obs.values, np.rint(ts.values))

    def test_rho_zero_gives_zeros(self, rng):
        obs = binomial_thin(counts(), 0.0, rng)
        assert obs.total() == 0.0

    def test_mean_close_to_rho_fraction(self, rng):
        ts = counts(n=400, scale=1000.0)
        obs = binomial_thin(ts, 0.6, rng)
        assert obs.total() == pytest.approx(0.6 * ts.total(), rel=0.02)

    def test_scheduled_rho(self, rng):
        ts = TimeSeries(0, np.full(20, 10_000.0))
        sched = PiecewiseConstant(breakpoints=(10,), values=(0.2, 0.9))
        obs = binomial_thin(ts, sched, rng)
        early = obs.values[:10].mean()
        late = obs.values[10:].mean()
        assert early == pytest.approx(2000, rel=0.1)
        assert late == pytest.approx(9000, rel=0.05)

    def test_invalid_rho_rejected(self, rng):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            binomial_thin(counts(), 1.5, rng)

    def test_negative_counts_rejected(self, rng):
        ts = TimeSeries(0, [-1.0, 2.0])
        with pytest.raises(ValueError, match="negative"):
            binomial_thin(ts, 0.5, rng)

    def test_name_prefixed(self, rng):
        assert binomial_thin(counts(), 0.5, rng).name == "observed_cases"

