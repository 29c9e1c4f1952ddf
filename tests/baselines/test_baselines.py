"""Unit tests for the baseline calibration methods.

Single-shot importance sampling is the calibrator's first window: a
one-window schedule run through :func:`repro.inference.calibrate`.
"""

import numpy as np
import pytest

from repro.baselines import random_walk_metropolis
from repro.core import paper_first_window_prior, paper_observation_model
from repro.data import PiecewiseConstant
from repro.inference import CalibrationConfig, calibrate
from repro.seir import DiseaseParameters
from repro.sim import make_ground_truth


@pytest.fixture(scope="module")
def truth():
    params = DiseaseParameters(population=30_000, initial_exposed=60)
    return make_ground_truth(
        params=params, horizon=24, seed=31,
        theta_schedule=PiecewiseConstant.constant(0.3),
        rho_schedule=PiecewiseConstant.constant(0.7))


def single_shot(truth, start_day, end_day, **sizes):
    """Importance sampling over ``[start_day, end_day)`` in one window."""
    cfg = CalibrationConfig(window_breaks=(start_day, end_day), **sizes)
    [window] = calibrate(truth.observations(), cfg,
                         base_params=truth.params).windows
    return window


class TestSingleShot:
    def test_runs_and_summarises(self, truth):
        res = single_shot(truth, 10, 24, n_parameter_draws=20,
                          n_replicates=2, resample_size=25, base_seed=1)
        assert len(res.posterior) == 25
        s = res.summary()
        assert 0 < s["ess_fraction"] <= 1
        assert 0.1 <= s["theta"]["mean"] <= 0.5

    def test_histories_cover_burn_in(self, truth):
        res = single_shot(truth, 10, 20, n_parameter_draws=10,
                          n_replicates=1, resample_size=10)
        p = res.posterior[0]
        assert p.history.start_day == 0
        assert p.segment.start_day == 10


class TestMCMC:
    def test_chain_shape_and_acceptance(self, truth):
        res = random_walk_metropolis(
            truth.observations(), truth.params, paper_first_window_prior(),
            paper_observation_model(bias_mode="mean"), start_day=10,
            end_day=20, n_steps=30, n_replicates=1, base_seed=3)
        assert res.samples["theta"].shape == (30,)
        assert 0.0 <= res.acceptance_rate <= 1.0
        assert res.posterior_samples("theta").shape == (30 - res.n_burn_in,)

    def test_chain_stays_in_support(self, truth):
        res = random_walk_metropolis(
            truth.observations(), truth.params, paper_first_window_prior(),
            paper_observation_model(bias_mode="mean"), start_day=10,
            end_day=20, n_steps=30, n_replicates=1, base_seed=4)
        assert np.all(res.samples["theta"] >= 0.1)
        assert np.all(res.samples["theta"] <= 0.5)
        assert np.all(res.samples["rho"] <= 1.0)

    def test_credible_interval_ordering(self, truth):
        res = random_walk_metropolis(
            truth.observations(), truth.params, paper_first_window_prior(),
            paper_observation_model(bias_mode="mean"), start_day=10,
            end_day=20, n_steps=24, n_replicates=1, base_seed=5)
        lo, hi = res.credible_interval("theta")
        assert lo <= res.posterior_mean("theta") + 0.2
        assert lo <= hi

    def test_validation(self, truth):
        with pytest.raises(ValueError):
            random_walk_metropolis(
                truth.observations(), truth.params,
                paper_first_window_prior(),
                paper_observation_model(), start_day=10, end_day=20,
                n_steps=1)
