"""Unit tests for the ground-truth factory (Fig 2 construction)."""

import numpy as np
import pytest

from repro.data import PiecewiseConstant
from repro.sim import make_fig2_ground_truth, make_ground_truth


@pytest.fixture(scope="module")
def truth(small_params_module):
    return make_ground_truth(params=small_params_module, horizon=40, seed=3)


@pytest.fixture(scope="module")
def small_params_module():
    from repro.seir import DiseaseParameters
    return DiseaseParameters(population=30_000, initial_exposed=60)


class TestGroundTruth:
    def test_observed_bounded_by_true(self, truth):
        assert np.all(truth.observed_cases.values <= truth.true_cases.values)

    def test_series_cover_horizon(self, truth):
        assert len(truth.true_cases) == 40
        assert len(truth.observed_cases) == 40
        assert len(truth.deaths) == 40

    def test_truth_lookups(self, truth):
        assert truth.theta_true(0) == 0.30
        assert truth.theta_true(34) == 0.27
        assert truth.rho_true(0) == 0.60
        assert truth.truth_point(34) == {"theta": 0.27, "rho": 0.70}

    def test_observations_cases_only(self, truth):
        obs = truth.observations()
        assert obs.names == ("cases",)
        assert obs["cases"].biased

    def test_observations_with_deaths(self, truth):
        obs = truth.observations(include_deaths=True)
        assert set(obs.names) == {"cases", "deaths"}
        assert not obs["deaths"].biased

    def test_truth_trajectory_deterministic(self, small_params_module):
        a = make_ground_truth(params=small_params_module, horizon=30, seed=3)
        b = make_ground_truth(params=small_params_module, horizon=30, seed=3)
        assert np.array_equal(a.true_cases.values, b.true_cases.values)
        assert np.array_equal(a.observed_cases.values, b.observed_cases.values)

    def test_different_seed_differs(self, small_params_module):
        a = make_ground_truth(params=small_params_module, horizon=30, seed=3)
        b = make_ground_truth(params=small_params_module, horizon=30, seed=4)
        assert not np.array_equal(a.true_cases.values, b.true_cases.values)

    def test_thinning_independent_of_truth_stream(self, small_params_module):
        """Observation noise must not perturb the truth trajectory."""
        a = make_ground_truth(params=small_params_module, horizon=25, seed=9,
                              rho_schedule=PiecewiseConstant.constant(0.5))
        b = make_ground_truth(params=small_params_module, horizon=25, seed=9,
                              rho_schedule=PiecewiseConstant.constant(0.9))
        assert np.array_equal(a.true_cases.values, b.true_cases.values)
        assert not np.array_equal(a.observed_cases.values,
                                  b.observed_cases.values)

    def test_invalid_horizon(self, small_params_module):
        with pytest.raises(ValueError):
            make_ground_truth(params=small_params_module, horizon=0)


class TestFig2Defaults:
    def test_uses_paper_schedules(self):
        truth = make_fig2_ground_truth(horizon=1)
        assert truth.theta_schedule.values == (0.30, 0.27, 0.25, 0.40)
        assert truth.rho_schedule.values == (0.60, 0.70, 0.85, 0.80)

    def test_chicago_scale_defaults(self):
        truth = make_fig2_ground_truth(horizon=1)
        assert truth.params.population == 2_700_000

    #: sha256 of the seed-777, 100-day Figure 2 truth (true cases, observed
    #: cases and deaths, float64, concatenated), recorded when ground truth
    #: ran through a one-trajectory model facade over the scalar engine;
    #: running the engine directly must not move a bit.
    FIG2_SHA256 = ("0b166041d38d39913c963e40b5603327"
                   "a98231f673367e5941430cd5f03d7c41")

    def test_fig2_truth_bits_pinned(self):
        import hashlib
        truth = make_fig2_ground_truth(seed=777, horizon=100)
        series = np.concatenate([truth.true_cases.values,
                                 truth.observed_cases.values,
                                 truth.deaths.values])
        assert series.dtype == np.float64
        assert hashlib.sha256(series.tobytes()).hexdigest() == \
            self.FIG2_SHA256
