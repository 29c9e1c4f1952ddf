"""Integration tests: the complete paper workflow at small scale.

These exercise the experiments end to end (ground truth -> sequential
calibration -> posterior checks) with town-scale populations and small
ensembles so the whole module runs in tens of seconds.
"""

import numpy as np
import pytest

from repro.core import hpd_region_mass, joint_density_grid
from repro.data import PiecewiseConstant
from repro.hpc import ProcessExecutor
from repro.inference import CalibrationConfig, calibrate, forecast_from_posterior
from repro.seir import DiseaseParameters
from repro.sim import make_ground_truth


@pytest.fixture(scope="module")
def town_params():
    return DiseaseParameters(population=60_000, initial_exposed=120)


@pytest.fixture(scope="module")
def varying_truth(town_params):
    """Time-varying theta and rho, horizons at day 20 (like the paper's 34)."""
    return make_ground_truth(
        params=town_params, horizon=30, seed=99,
        theta_schedule=PiecewiseConstant(breakpoints=(20,), values=(0.32, 0.22)),
        rho_schedule=PiecewiseConstant(breakpoints=(20,), values=(0.6, 0.85)))


@pytest.fixture(scope="module")
def cases_only_result(varying_truth, town_params):
    cfg = CalibrationConfig(window_breaks=(10, 20, 30),
                            n_parameter_draws=80, n_replicates=3,
                            resample_size=120, base_seed=41)
    return calibrate(varying_truth.observations(), cfg,
                     base_params=town_params)


@pytest.fixture(scope="module")
def with_deaths_result(varying_truth, town_params):
    cfg = CalibrationConfig(window_breaks=(10, 20, 30),
                            n_parameter_draws=80, n_replicates=3,
                            resample_size=120, base_seed=41)
    return calibrate(varying_truth.observations(include_deaths=True), cfg,
                     base_params=town_params)


class TestSequentialRecovery:
    def test_theta_tracks_decrease(self, cases_only_result):
        """The second-window posterior must move toward the lowered truth."""
        track = cases_only_result.parameter_track("theta")
        assert track.means[1] < track.means[0] + 0.05

    def test_posterior_intervals_finite_width(self, cases_only_result):
        track = cases_only_result.parameter_track("theta")
        widths = track.ci90[:, 1] - track.ci90[:, 0]
        assert np.all(widths >= 0)
        assert np.all(widths < 0.4)  # much tighter than the prior

    def test_ribbon_covers_truth_majority_of_days(self, cases_only_result,
                                                  varying_truth):
        rib = cases_only_result.posterior_ribbon("cases")
        truth_vals = varying_truth.true_cases.values
        coverage = rib.coverage_of(truth_vals, 0.05, 0.95)
        # Cases-only calibration confounds (theta, rho); the strong Beta(4,1)
        # prior pulls rho high, so true-case coverage is imperfect — the
        # paper notes the same (Fig 3 discussion).  Require substantial but
        # not total coverage.
        assert coverage > 0.3

    def test_truth_in_joint_posterior_support(self, cases_only_result,
                                              varying_truth):
        """The (theta, rho) truth square must not sit in the far tail."""
        post = cases_only_result.window(1).posterior
        theta = post.values("theta")
        rho = post.values("rho")
        xe, ye, dens = joint_density_grid(theta, rho, bins=15,
                                          x_range=(0.05, 0.55),
                                          y_range=(0.0, 1.0))
        t_true = varying_truth.theta_true(25)
        i = int(np.clip(np.searchsorted(xe, t_true) - 1, 0, 14))
        r_true = varying_truth.rho_true(25)
        j = int(np.clip(np.searchsorted(ye, r_true) - 1, 0, 14))
        # mass of the HPD region containing the truth cell: < 1 means the
        # truth is not strictly outside the posterior's support
        assert hpd_region_mass(dens, (i, j)) <= 1.0


class TestMultiSourceTightening:
    def test_deaths_do_not_blow_up_uncertainty(self, cases_only_result,
                                               with_deaths_result):
        """Fig 5 claim: adding deaths concentrates the posterior (on
        average across windows the CI should not widen materially)."""
        cases_w = cases_only_result.parameter_track("theta").ci90
        both_w = with_deaths_result.parameter_track("theta").ci90
        mean_width_cases = float(np.mean(cases_w[:, 1] - cases_w[:, 0]))
        mean_width_both = float(np.mean(both_w[:, 1] - both_w[:, 0]))
        assert mean_width_both <= mean_width_cases * 1.5

    def test_death_ribbon_available(self, with_deaths_result):
        rib = with_deaths_result.posterior_ribbon("deaths")
        assert rib.n_days == 30
        assert np.all(rib.band(0.95) >= rib.band(0.05))


class TestForecastContinuity:
    def test_forecast_continues_final_state(self, cases_only_result):
        fc = forecast_from_posterior(cases_only_result.final_posterior,
                                     horizon_days=6, base_seed=5)
        assert fc.start_day == 30
        rib = fc.ribbon("cases")
        assert rib.n_days == 6


class TestParallelEquivalence:
    def test_process_pool_matches_serial(self, varying_truth, town_params):
        """The executor must not change the statistics, only the speed.

        The shard layout is pinned: under ``n_shards="auto"`` a serial and
        a two-worker executor would cut the cloud into different shards,
        which re-keys the per-shard streams.
        """
        cfg = CalibrationConfig(window_breaks=(10, 20),
                                n_parameter_draws=20, n_replicates=2,
                                resample_size=25, base_seed=13, n_shards=2)
        serial = calibrate(varying_truth.observations(), cfg,
                           base_params=town_params)
        with ProcessExecutor(max_workers=2) as ex:
            parallel = calibrate(varying_truth.observations(), cfg,
                                 base_params=town_params, executor=ex)
        assert np.array_equal(
            serial.final_posterior.values("theta"),
            parallel.final_posterior.values("theta"))
        assert np.array_equal(
            serial.final_posterior.values("rho"),
            parallel.final_posterior.values("rho"))


class TestCheckpointConsistency:
    def test_final_posterior_histories_contiguous(self, cases_only_result):
        histories = cases_only_result.final_posterior.histories
        assert histories.start_day == 0
        assert histories.end_day == 30
        assert np.all(histories.infections >= 0)
