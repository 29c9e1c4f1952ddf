"""Single-shot importance sampling is the calibrator's first window: a
one-window schedule run through :func:`repro.inference.calibrate`.
"""

import pytest

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
        assert res.posterior.histories.start_day == 0
        assert res.posterior.segments.start_day == 10
