"""Unit tests for the sequential calibrator."""

import numpy as np
import pytest

from repro.core import (SequentialCalibrator, SMCConfig, UniformJitter,
                        JointJitter, IndependentProduct, Uniform, Beta, Dirac,
                        WindowSchedule, paper_observation_model,
                        paper_first_window_prior, paper_window_jitter)
from repro.sim import make_ground_truth
from repro.data import PiecewiseConstant


@pytest.fixture(scope="module")
def small_truth():
    from repro.seir import DiseaseParameters
    params = DiseaseParameters(population=50_000, initial_exposed=100)
    return make_ground_truth(params=params, horizon=35, seed=555,
                             theta_schedule=PiecewiseConstant.constant(0.30),
                             rho_schedule=PiecewiseConstant.constant(0.7))


def calibrator(schedule, truth, config=None, **kwargs):
    return SequentialCalibrator(
        base_params=truth.params,
        prior=paper_first_window_prior(),
        jitter=paper_window_jitter(),
        observation_model=paper_observation_model(),
        schedule=schedule,
        config=config or SMCConfig(n_parameter_draws=30, n_replicates=2,
                                   resample_size=40, base_seed=17),
        **kwargs)


class TestConfigValidation:
    def test_sizes_validated(self):
        with pytest.raises(ValueError):
            SMCConfig(n_parameter_draws=0)
        with pytest.raises(ValueError):
            SMCConfig(resample_size=0)

    def test_steps_per_day_validated(self):
        with pytest.raises(ValueError, match="steps_per_day must be >= 1"):
            SMCConfig(steps_per_day=0)

    def test_ensemble_size_properties(self):
        cfg = SMCConfig(n_parameter_draws=10, n_replicates=3,
                        resample_size=7, n_continuations=2)
        assert cfg.continuation_ensemble_size == 14


class TestCalibratorValidation:
    def test_prior_must_include_rho(self, small_truth):
        schedule = WindowSchedule.from_breaks([10, 20])
        prior = IndependentProduct({"theta": Uniform(0.1, 0.5)})
        with pytest.raises(ValueError, match="rho"):
            SequentialCalibrator(small_truth.params, prior,
                                 paper_window_jitter(),
                                 paper_observation_model(), schedule)

    def test_prior_must_include_theta(self, small_truth):
        schedule = WindowSchedule.from_breaks([10, 20])
        prior = IndependentProduct({"rho": Beta(4, 1)})
        with pytest.raises(ValueError, match="'theta'"):
            SequentialCalibrator(small_truth.params, prior,
                                 paper_window_jitter(),
                                 paper_observation_model(), schedule)

    def test_jitter_required_for_multi_window(self, small_truth):
        schedule = WindowSchedule.from_breaks([10, 20, 30])
        prior = paper_first_window_prior()
        jitter = JointJitter({"theta": UniformJitter.symmetric(0.05)})
        with pytest.raises(ValueError, match="jitter"):
            SequentialCalibrator(small_truth.params, prior, jitter,
                                 paper_observation_model(), schedule)

    def test_observation_coverage_checked(self, small_truth):
        schedule = WindowSchedule.from_breaks([10, 40])  # beyond horizon 35
        calib = calibrator(schedule, small_truth)
        with pytest.raises(ValueError, match="cover"):
            calib.run(small_truth.observations())


class TestSingleWindowRun:
    @pytest.fixture(scope="class")
    def result(self, small_truth):
        schedule = WindowSchedule.from_breaks([10, 24])
        calib = calibrator(schedule, small_truth)
        return calib.run(small_truth.observations())[0]

    def test_posterior_size(self, result):
        assert len(result.posterior) == 40

    def test_posterior_weights_uniform_after_resampling(self, result):
        assert np.allclose(result.posterior.log_weights(), 0.0)

    def test_posterior_within_prior_support(self, result):
        theta = result.posterior.values("theta")
        rho = result.posterior.values("rho")
        assert np.all((theta >= 0.1) & (theta <= 0.5))
        assert np.all((rho >= 0.0) & (rho <= 1.0))

    def test_particles_carry_checkpoints_at_window_end(self, result):
        restart = result.posterior.restart
        assert restart is not None
        assert restart.n_particles == len(result.posterior)
        assert restart.day == 24

    def test_segments_cover_window(self, result):
        posterior = result.posterior
        assert posterior.segments.start_day == 10
        assert posterior.segments.end_day == 24
        assert posterior.histories.start_day == 0

    def test_diagnostics_populated(self, result):
        d = result.diagnostics
        assert d.n_particles == 60
        assert 0 < d.ess <= 60
        assert np.isfinite(d.log_evidence)

    def test_summary_structure(self, result):
        s = result.summary()
        assert "theta" in s and "rho" in s
        # The median (unlike the mean) always lies inside the 90% interval.
        assert s["theta"]["ci90"][0] <= s["theta"]["median"] <= s["theta"]["ci90"][1]


class TestSequentialRun:
    @pytest.fixture(scope="class")
    def results(self, small_truth):
        schedule = WindowSchedule.from_breaks([10, 20, 30])
        calib = calibrator(schedule, small_truth)
        return calib.run(small_truth.observations())

    def test_one_result_per_window(self, results):
        assert len(results) == 2
        assert results[0].window.label() == "Days 10-19"
        assert results[1].window.label() == "Days 20-29"

    def test_second_window_histories_extend(self, results):
        posterior = results[1].posterior
        assert posterior.histories.start_day == 0
        assert posterior.histories.end_day == 30
        assert posterior.segments.start_day == 20

    def test_checkpoints_advance(self, results):
        assert results[0].posterior.restart.day == 20
        assert results[1].posterior.restart.day == 30

    def test_continuation_seeds_fresh(self, results):
        s0 = set(results[0].posterior.seeds().tolist())
        s1 = set(results[1].posterior.seeds().tolist())
        assert not (s0 & s1)

    def test_reproducible_given_base_seed(self, small_truth):
        schedule = WindowSchedule.from_breaks([10, 20])
        r1 = calibrator(schedule, small_truth).run(small_truth.observations())
        r2 = calibrator(schedule, small_truth).run(small_truth.observations())
        assert np.array_equal(r1[0].posterior.values("theta"),
                              r2[0].posterior.values("theta"))


class TestSimulatedCloud:
    """A window's cloud simulated ahead of its step weighs to the same
    posterior as the fused step."""

    def test_stepping_a_simulated_cloud_is_bit_identical(self, small_truth):
        from repro.core.smc import WindowResult
        from repro.testing.chaos import ChaosExecutor, Fault, FaultPlan

        def run(ahead, plan=None):
            calib = calibrator(
                WindowSchedule.from_breaks([10, 20, 30]), small_truth,
                config=SMCConfig(n_parameter_draws=30, n_replicates=2,
                                 resample_size=40, base_seed=17,
                                 n_shards=2, retry_attempts=2))
            w0, w1 = list(calib.schedule)
            first = calib.step_window(0, w0, small_truth.observations())
            if plan is not None:
                calib.executor = ChaosExecutor(calib.executor, plan)
            cloud = (calib.simulate_window(1, w1, first.posterior,
                                           n_proposals=40)
                     if ahead else None)
            if ahead:  # the next window's proposing must not leak into it
                calib.propose_window(0, w0)
                calib.executor = None  # and the step must not simulate
            result = calib.step_window(
                1, w1, small_truth.observations(), first.posterior,
                n_proposals=40, cloud=cloud)
            assert isinstance(result, WindowResult)
            return result

        fused, ahead = run(False), run(True)
        for name in ("theta", "rho"):
            assert np.array_equal(fused.posterior.values(name),
                                  ahead.posterior.values(name))
        assert np.array_equal(fused.posterior.seeds(),
                              ahead.posterior.seeds())
        assert fused.diagnostics == ahead.diagnostics

        # A shard failure recovered while simulating the cloud ahead lands
        # in that window's diagnostics.
        plan = FaultPlan.scripted(Fault("crash", shard=0, attempt=1))
        recovered = run(True, plan)
        assert recovered.diagnostics.shard_failures == 1
        assert np.array_equal(recovered.posterior.values("theta"),
                              fused.posterior.values("theta"))

    def test_mismatched_cloud_refused(self, small_truth):
        calib = calibrator(WindowSchedule.from_breaks([10, 20, 30]),
                           small_truth)
        w0, w1 = list(calib.schedule)
        first = calib.step_window(0, w0, small_truth.observations())
        cloud = calib.simulate_window(1, w1, first.posterior)
        with pytest.raises(ValueError, match="does not match"):
            calib.step_window(1, w1, small_truth.observations(),
                              first.posterior, n_proposals=20, cloud=cloud)


class TestPerWindowRandomness:
    """Regression: jitter, bias-thinning and resampling must draw from
    window-indexed streams, not re-create the same stream every window."""

    class SpyBank:
        def __init__(self, bank):
            self._bank = bank
            self.calls = []

        def ancillary_generator(self, purpose=0, window_index=None):
            self.calls.append((purpose, window_index))
            return self._bank.ancillary_generator(purpose, window_index)

        def __getattr__(self, name):
            return getattr(self._bank, name)

    def test_ancillary_streams_are_window_indexed(self, small_truth):
        from repro.core.smc import (_PURPOSE_BIAS, _PURPOSE_JITTER,
                                    _PURPOSE_RESAMPLE)
        schedule = WindowSchedule.from_breaks([10, 18, 26, 34])
        calib = calibrator(schedule, small_truth)
        spy = self.SpyBank(calib._bank)
        calib._bank = spy
        calib.run(small_truth.observations())
        windows_seen = {purpose: {w for p, w in spy.calls if p == purpose}
                        for purpose in (_PURPOSE_BIAS, _PURPOSE_RESAMPLE,
                                        _PURPOSE_JITTER)}
        assert windows_seen[_PURPOSE_BIAS] == {0, 1, 2}
        assert windows_seen[_PURPOSE_RESAMPLE] == {0, 1, 2}
        assert windows_seen[_PURPOSE_JITTER] == {1, 2}  # no jitter in window 0

    def test_resample_draws_differ_across_windows(self, small_truth):
        """Identical weight vectors in different windows must not resample
        to identical ancestor indices (the observable symptom of the bug)."""
        from repro.core.smc import _PURPOSE_RESAMPLE
        from repro.core.resampling import multinomial_resample
        calib = calibrator(WindowSchedule.from_breaks([10, 20]), small_truth)
        w = np.full(50, 1 / 50)
        picks = [multinomial_resample(
            w, 50, calib._bank.ancillary_generator(_PURPOSE_RESAMPLE,
                                                   window_index=i))
            for i in range(3)]
        assert not np.array_equal(picks[0], picks[1])
        assert not np.array_equal(picks[1], picks[2])


class TestRecovery:
    def test_theta_recovered_with_pinned_rho(self, small_truth):
        """With rho pinned at truth, theta must concentrate near 0.30."""
        schedule = WindowSchedule.from_breaks([10, 24])
        prior = IndependentProduct({"theta": Uniform(0.1, 0.5),
                                    "rho": Dirac(0.7)})
        calib = SequentialCalibrator(
            base_params=small_truth.params, prior=prior,
            jitter=paper_window_jitter(),
            observation_model=paper_observation_model(bias_mode="mean"),
            schedule=schedule,
            config=SMCConfig(n_parameter_draws=60, n_replicates=3,
                             resample_size=60, base_seed=23))
        result = calib.run(small_truth.observations())[0]
        assert result.posterior.weighted_mean("theta") == pytest.approx(
            0.30, abs=0.06)
