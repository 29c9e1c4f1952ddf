"""Unit tests for posterior predictive forecasting."""

import numpy as np
import pytest

from repro.core import (SMCConfig, SequentialCalibrator, WindowSchedule,
                        paper_first_window_prior, paper_observation_model,
                        paper_window_jitter)
from repro.data import PiecewiseConstant
from repro.inference import Forecast, forecast_from_posterior
from repro.inference.forecast import _forecast_seeds
from repro.seir import DiseaseParameters, ParameterOverride
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
        for traj in fc.trajectories:
            assert traj.start_day == 20
            assert len(traj) == 8

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
        assert np.array_equal(a.trajectories[0].infections,
                              b.trajectories[0].infections)

    def test_different_base_seed_differs(self, posterior):
        a = forecast_from_posterior(posterior, 8, base_seed=1)
        b = forecast_from_posterior(posterior, 8, base_seed=2)
        different = any(
            not np.array_equal(x.infections, y.infections)
            for x, y in zip(a.trajectories, b.trajectories))
        assert different

    def test_validation(self, posterior):
        with pytest.raises(ValueError):
            forecast_from_posterior(posterior, 0)
        with pytest.raises(ValueError):
            forecast_from_posterior(posterior, 5, n_per_particle=0)

    def test_missing_checkpoints_rejected(self):
        from repro.core import Particle, ParticleEnsemble
        bare = ParticleEnsemble([Particle(params={"theta": 0.3}, seed=1)])
        with pytest.raises(ValueError, match="checkpoint"):
            forecast_from_posterior(bare, 5)

    def test_path_validation(self, posterior):
        """There is one forecast path; the old selector is gone."""
        with pytest.raises(TypeError, match="path"):
            forecast_from_posterior(posterior, 5, path="scalar")


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
        from repro.hpc import SerialExecutor, simulate_members
        fc = forecast_from_posterior(posterior, 6, base_seed=3)
        direct = simulate_members(
            SerialExecutor(), [p.checkpoint.params for p in posterior],
            _forecast_seeds(posterior, 3, 1), end_day=fc.start_day + 6,
            state=posterior.restart, n_shards=1)
        for a, b in zip(fc.trajectories, direct):
            assert np.array_equal(a.infections, b.infections)
            assert np.array_equal(a.deaths, b.deaths)

    def test_scalar_batched_distributional_parity(self, posterior):
        """Acceptance: the batched forecast overlaps the per-particle
        restart oracle's credible intervals (same checkpoints and seeds,
        different draw order)."""
        batched = forecast_from_posterior(posterior, 10, base_seed=3,
                                          n_per_particle=3)
        seeds = _forecast_seeds(posterior, 3, 3)
        scalar = Forecast(
            start_day=batched.start_day, horizon_days=10,
            trajectories=tuple(restart_oracle(
                [p.checkpoint for p in posterior] * 3,
                [ParameterOverride(seed=int(seed)) for seed in seeds],
                batched.start_day + 10)))
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
        for a, b in zip(serial.trajectories, pooled.trajectories):
            assert np.array_equal(a.infections, b.infections)
            assert np.array_equal(a.deaths, b.deaths)

    def test_shard_layout_only_rekeys_streams(self, posterior):
        """Different layouts give different bits but the same start/shape."""
        one = forecast_from_posterior(posterior, 6, base_seed=5, n_shards=1)
        many = forecast_from_posterior(posterior, 6, base_seed=5,
                                       shard_size=3)
        assert len(one) == len(many)
        assert any(not np.array_equal(a.infections, b.infections)
                   for a, b in zip(one.trajectories, many.trajectories))

    def test_shard_knob_validation(self, posterior):
        with pytest.raises(ValueError, match="not both"):
            forecast_from_posterior(posterior, 5, shard_size=4, n_shards=2)
        with pytest.raises(ValueError, match="n_shards"):
            forecast_from_posterior(posterior, 5, n_shards="3")
        with pytest.raises(ValueError, match="shard_size"):
            forecast_from_posterior(posterior, 5, shard_size=0)

    def test_explicit_batched_rejects_schedule_checkpoints(self):
        """A transmission schedule cannot ride the batched restart; the
        ensemble a forecast starts from refuses it instead of silently
        dropping it."""
        from repro.core import Particle, ParticleEnsemble
        from repro.data import PiecewiseConstant
        from repro.seir import DiseaseParameters, StochasticSEIRModel

        params = DiseaseParameters(population=3000, initial_exposed=20)
        schedule = PiecewiseConstant.constant(0.25)
        particles = []
        for seed in (1, 2):
            model = StochasticSEIRModel(params, seed,
                                        theta_schedule=schedule)
            model.run_until(5)
            particles.append(Particle(params={"theta": 0.3, "rho": 0.7},
                                      seed=seed,
                                      checkpoint=model.checkpoint()))
        with pytest.raises(ValueError, match="active transmission schedule"):
            forecast_from_posterior(ParticleEnsemble(particles), 4)

    def test_mixed_day_checkpoints_rejected(self):
        """Checkpoints at different days can't share a batch clock."""
        from repro.core import Particle, ParticleEnsemble
        from repro.seir import DiseaseParameters, StochasticSEIRModel

        params = DiseaseParameters(population=3000, initial_exposed=20)
        particles = []
        for seed, day in ((1, 5), (2, 7)):
            model = StochasticSEIRModel(params, seed)
            model.run_until(day)
            particles.append(Particle(params={"theta": 0.3, "rho": 0.7},
                                      seed=seed,
                                      checkpoint=model.checkpoint()))
        with pytest.raises(ValueError, match="share one clock"):
            forecast_from_posterior(ParticleEnsemble(particles), 4)

    def test_gillespie_checkpoints_rejected(self):
        """Only binomial-leap checkpoints restart on the batched engine; a
        Gillespie checkpoint is refused, not mis-restarted."""
        from repro.core import Particle, ParticleEnsemble
        from repro.seir import Checkpoint, DiseaseParameters
        from repro.testing import GillespieEngine

        params = DiseaseParameters(population=3000, initial_exposed=20)
        particles = []
        for seed in (1, 2):
            engine = GillespieEngine(params, seed)
            engine.run_until(5)
            checkpoint = Checkpoint(params=params,
                                    snapshot=engine.state_snapshot())
            particles.append(Particle(params={"theta": 0.3, "rho": 0.7},
                                      seed=seed, checkpoint=checkpoint))
        with pytest.raises(ValueError, match="requires binomial_leap"):
            forecast_from_posterior(ParticleEnsemble(particles), 4)


class TestForecastScenarios:
    """forecast_scenarios: CRN fan-out over per-scenario posteriors."""

    def test_crn_identical_posteriors_identical_forecasts(self, posterior):
        from repro.inference import forecast_scenarios
        fcs = forecast_scenarios({"a": posterior, "b": posterior},
                                 horizon_days=6, base_seed=4)
        assert list(fcs) == ["a", "b"]
        for ta, tb in zip(fcs["a"].trajectories, fcs["b"].trajectories):
            assert np.array_equal(ta.infections, tb.infections)
            assert np.array_equal(ta.deaths, tb.deaths)

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
        for a, b in zip(alone.trajectories, swept["only"].trajectories):
            assert np.array_equal(a.infections, b.infections)
