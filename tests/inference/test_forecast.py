"""Unit tests for posterior predictive forecasting."""

import numpy as np
import pytest

from repro.core import (SMCConfig, SequentialCalibrator, WindowSchedule,
                        paper_first_window_prior, paper_observation_model,
                        paper_window_jitter)
from repro.data import PiecewiseConstant
from repro.inference import Forecast, forecast_from_posterior
from repro.inference.forecast import _forecast_seeds, forecast_from_cloud
from repro.seir import DiseaseParameters
from repro.sim import make_ground_truth
from repro.testing import restart_oracle


@pytest.fixture(scope="module")
def posterior():
    params = DiseaseParameters(population=30_000, initial_exposed=60)
    truth = make_ground_truth(
        params=params, horizon=20, seed=11,
        theta_schedule=PiecewiseConstant.constant(0.3),
        rho_schedule=PiecewiseConstant.constant(0.7))
    calib = SequentialCalibrator(
        base_params=params, prior=paper_first_window_prior(),
        jitter=paper_window_jitter(),
        observation_model=paper_observation_model(),
        schedule=WindowSchedule.from_breaks([10, 20]),
        config=SMCConfig(n_parameter_draws=15, n_replicates=2,
                         resample_size=20, base_seed=6))
    return calib.run(truth.observations())[0].posterior


class TestForecast:
    def test_horizon_and_count(self, posterior):
        fc = forecast_from_posterior(posterior, horizon_days=8)
        assert fc.start_day == 20
        assert fc.horizon_days == 8
        assert len(fc) == 20
        assert fc.batch.start_day == 20
        assert fc.batch.infections.shape == (20, 8)

    def test_multiple_continuations_per_particle(self, posterior):
        fc = forecast_from_posterior(posterior, horizon_days=5,
                                     n_per_particle=2)
        assert len(fc) == 40

    def test_ribbon(self, posterior):
        fc = forecast_from_posterior(posterior, horizon_days=5)
        rib = fc.ribbon("cases")
        assert rib.start_day == 20
        assert rib.n_days == 5

    def test_deterministic_given_base_seed(self, posterior):
        a = forecast_from_posterior(posterior, 5, base_seed=1)
        b = forecast_from_posterior(posterior, 5, base_seed=1)
        assert np.array_equal(a.batch.infections, b.batch.infections)

    def test_different_base_seed_differs(self, posterior):
        a = forecast_from_posterior(posterior, 8, base_seed=1)
        b = forecast_from_posterior(posterior, 8, base_seed=2)
        assert not np.array_equal(a.batch.infections, b.batch.infections)

    def test_validation(self, posterior):
        with pytest.raises(ValueError):
            forecast_from_posterior(posterior, 0)
        with pytest.raises(ValueError):
            forecast_from_posterior(posterior, 5, n_per_particle=0)

    def test_missing_checkpoints_rejected(self):
        from repro.core import ParticleEnsemble
        bare = ParticleEnsemble.from_columns({"theta": np.array([0.3])},
                                             np.array([1]))
        with pytest.raises(ValueError, match="checkpoint"):
            forecast_from_posterior(bare, 5)

    def test_path_validation(self, posterior):
        """There is one forecast path; the old selector is gone."""
        with pytest.raises(TypeError, match="path"):
            forecast_from_posterior(posterior, 5, path="scalar")


@pytest.fixture(scope="module")
def cloud():
    """Window 1's simulated, unweighted proposal cloud (days 20-26)."""
    params = DiseaseParameters(population=30_000, initial_exposed=60)
    truth = make_ground_truth(
        params=params, horizon=27, seed=11,
        theta_schedule=PiecewiseConstant.constant(0.3),
        rho_schedule=PiecewiseConstant.constant(0.7))
    calib = SequentialCalibrator(
        base_params=params, prior=paper_first_window_prior(),
        jitter=paper_window_jitter(),
        observation_model=paper_observation_model(),
        schedule=WindowSchedule.from_breaks([10, 20, 27]),
        config=SMCConfig(n_parameter_draws=15, n_replicates=2,
                         resample_size=20, n_continuations=2, base_seed=6))
    windows = list(calib.schedule)
    first = calib.step_window(0, windows[0], truth.observations())
    return calib.simulate_window(1, windows[1], first.posterior,
                                 n_proposals=40).ensemble


class TestForecastFromCloud:
    """The next window's proposal cloud as the forecast."""

    def test_short_horizon_is_the_cloud(self, cloud):
        fc = forecast_from_cloud(cloud, horizon_days=4)
        assert (fc.start_day, fc.horizon_days, len(fc)) == (20, 4, 40)
        head = cloud.segments.window(20, 24)
        assert np.array_equal(fc.batch.infections, head.infections)
        assert np.array_equal(fc.batch.deaths, head.deaths)
        full = forecast_from_cloud(cloud, horizon_days=7)
        assert np.array_equal(full.batch.infections,
                              cloud.segments.infections)

    def test_long_horizon_continues_contiguously(self, cloud):
        """Past the window's end every member restarts from its
        end-of-window state on the forecast stream: the first 7 days are
        the cloud, the rest the restart, day for day."""
        from repro.hpc import GroupSpec, SerialExecutor, simulate_groups
        fc = forecast_from_cloud(cloud, horizon_days=12, base_seed=3)
        assert (fc.start_day, fc.batch.start_day, fc.batch.n_days) == \
            (20, 20, 12)
        assert cloud.restart.day == 27
        restart = cloud.restart
        [(tail, _)] = simulate_groups(
            SerialExecutor(),
            [GroupSpec(params=restart.params,
                       seeds=_forecast_seeds(cloud, 3, 1),
                       thetas=restart.thetas, state=restart)],
            end_day=32, n_shards=1)
        for channel in ("cases", "deaths", "hospital_census"):
            expected = np.hstack([cloud.segments.channel_matrix(channel),
                                  tail.channel_matrix(channel)])
            assert np.array_equal(fc.batch.channel_matrix(channel), expected)

    def test_long_horizon_is_deterministic_per_forecast_seed(self, cloud):
        a = forecast_from_cloud(cloud, 12, base_seed=3)
        b = forecast_from_cloud(cloud, 12, base_seed=3)
        c = forecast_from_cloud(cloud, 12, base_seed=4)
        assert np.array_equal(a.batch.infections, b.batch.infections)
        assert np.array_equal(a.batch.infections[:, :7],
                              c.batch.infections[:, :7])
        assert not np.array_equal(a.batch.infections[:, 7:],
                                  c.batch.infections[:, 7:])

    def test_validation(self, cloud):
        with pytest.raises(ValueError, match="horizon_days"):
            forecast_from_cloud(cloud, 0)


class TestShardedBatchedForecast:
    """The batched forecast path: sharded whole-cloud restarts."""

    def test_no_per_particle_dispatch(self, posterior):
        """Acceptance: no longer one scalar task per particle — the serial
        auto policy submits a single whole-cloud shard."""
        from repro.hpc import SerialExecutor

        class SpyExecutor(SerialExecutor):
            task_counts = []

            def map(self, fn, tasks):
                tasks = list(tasks)
                SpyExecutor.task_counts.append(len(tasks))
                return super().map(fn, tasks)

        fc = forecast_from_posterior(posterior, horizon_days=6,
                                     executor=SpyExecutor())
        assert len(fc) == len(posterior) == 20
        assert SpyExecutor.task_counts == [1]

    def test_batched_is_the_auto_path(self, posterior):
        """The forecast is exactly one shared-helper batched dispatch over
        the stacked checkpoints."""
        from repro.hpc import GroupSpec, SerialExecutor, simulate_groups
        fc = forecast_from_posterior(posterior, 6, base_seed=3)
        restart = posterior.restart
        [(direct, _)] = simulate_groups(
            SerialExecutor(),
            [GroupSpec(params=restart.params,
                       seeds=_forecast_seeds(posterior, 3, 1),
                       thetas=restart.thetas, state=restart)],
            end_day=fc.start_day + 6, n_shards=1)
        assert np.array_equal(fc.batch.infections, direct.infections)
        assert np.array_equal(fc.batch.deaths, direct.deaths)

    def test_scalar_batched_distributional_parity(self, posterior):
        """Acceptance: the batched forecast overlaps the per-particle
        restart oracle's credible intervals (same checkpoints and seeds,
        different draw order)."""
        batched = forecast_from_posterior(posterior, 10, base_seed=3,
                                          n_per_particle=3)
        seeds = _forecast_seeds(posterior, 3, 3)
        scalar = Forecast(
            start_day=batched.start_day, horizon_days=10,
            batch=restart_oracle(
                posterior.restart.take(np.tile(np.arange(len(posterior)), 3)),
                seeds, batched.start_day + 10))
        for channel in ("cases", "deaths"):
            rib_s = scalar.ribbon(channel, quantiles=(0.05, 0.5, 0.95))
            rib_b = batched.ribbon(channel, quantiles=(0.05, 0.5, 0.95))
            lo_s, hi_s = rib_s.band(0.05), rib_s.band(0.95)
            lo_b, hi_b = rib_b.band(0.05), rib_b.band(0.95)
            overlap = (lo_b <= hi_s) & (lo_s <= hi_b)
            assert overlap.all(), f"{channel}: disjoint forecast bands"
            # Medians track each other within the ensemble spread.
            med_gap = np.abs(rib_s.band(0.5) - rib_b.band(0.5))
            spread = np.maximum(hi_s - lo_s, 1.0)
            assert (med_gap <= spread).all()

    def test_bit_identical_across_executors_for_fixed_layout(self, posterior):
        from repro.hpc import ProcessExecutor, SerialExecutor
        serial = forecast_from_posterior(posterior, 6, base_seed=5,
                                         shard_size=7,
                                         executor=SerialExecutor())
        with ProcessExecutor(max_workers=2) as pool:
            pooled = forecast_from_posterior(posterior, 6, base_seed=5,
                                             shard_size=7, executor=pool)
        assert np.array_equal(serial.batch.infections, pooled.batch.infections)
        assert np.array_equal(serial.batch.deaths, pooled.batch.deaths)

    def test_shard_layout_only_rekeys_streams(self, posterior):
        """Different layouts give different bits but the same start/shape."""
        one = forecast_from_posterior(posterior, 6, base_seed=5, n_shards=1)
        many = forecast_from_posterior(posterior, 6, base_seed=5,
                                       shard_size=3)
        assert len(one) == len(many)
        assert one.batch.infections.shape == many.batch.infections.shape
        assert not np.array_equal(one.batch.infections, many.batch.infections)

    def test_shard_knob_validation(self, posterior):
        with pytest.raises(ValueError, match="not both"):
            forecast_from_posterior(posterior, 5, shard_size=4, n_shards=2)
        with pytest.raises(ValueError, match="n_shards"):
            forecast_from_posterior(posterior, 5, n_shards="3")
        with pytest.raises(ValueError, match="shard_size"):
            forecast_from_posterior(posterior, 5, shard_size=0)

    def test_hand_built_particles_carry_no_restart_state(self):
        """Restart state enters an ensemble only as its own column: one
        built from parameter and seed columns alone has none to forecast
        from."""
        from repro.core import ParticleEnsemble
        ensemble = ParticleEnsemble.from_columns(
            {"theta": np.full(2, 0.3), "rho": np.full(2, 0.7)},
            np.array([1, 2]))
        assert ensemble.restart is None
        with pytest.raises(ValueError, match="carry no checkpoints"):
            forecast_from_posterior(ensemble, 4)


class TestForecastScenarios:
    """forecast_scenarios: CRN fan-out over per-scenario posteriors."""

    def test_crn_identical_posteriors_identical_forecasts(self, posterior):
        from repro.inference import forecast_scenarios
        fcs = forecast_scenarios({"a": posterior, "b": posterior},
                                 horizon_days=6, base_seed=4)
        assert list(fcs) == ["a", "b"]
        assert np.array_equal(fcs["a"].batch.infections,
                              fcs["b"].batch.infections)
        assert np.array_equal(fcs["a"].batch.deaths, fcs["b"].batch.deaths)

    def test_canonical_sorted_order(self, posterior):
        from repro.inference import forecast_scenarios
        fcs = forecast_scenarios(
            {"zeta": posterior, "alpha": posterior, "mid": posterior},
            horizon_days=4)
        assert list(fcs) == ["alpha", "mid", "zeta"]

    def test_matches_single_scenario_call(self, posterior):
        from repro.inference import forecast_scenarios
        alone = forecast_from_posterior(posterior, 5, base_seed=9)
        swept = forecast_scenarios({"only": posterior}, 5, base_seed=9)
        assert np.array_equal(alone.batch.infections,
                              swept["only"].batch.infections)
