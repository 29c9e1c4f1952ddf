"""Tests for the batched simulation path of the sequential calibrator.

The per-particle scalar restart (:func:`repro.testing.window_oracle`) is
the reference oracle; a batched continuation window must agree with it
*distributionally* (overlapping credible intervals of the window totals and
of the weighted posteriors) when both restart the same parents with the
same parameters and seeds.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core import (Beta, Dirac, IndependentProduct, JointJitter,
                        SequentialCalibrator, SMCConfig, Uniform,
                        UniformJitter, WindowSchedule,
                        paper_first_window_prior, paper_observation_model,
                        paper_window_jitter)
from repro.data import PiecewiseConstant
from repro.hpc import SerialExecutor
from repro.hpc.sharding import simulate_groups
from repro.inference import CalibrationConfig
from repro.seir import DiseaseParameters
from repro.sim import make_ground_truth
from repro.testing import BinomialLeapEngine, window_oracle


def _simulate(calib, pending):
    """Dispatch a proposed window the way the calibrator's step does."""
    return simulate_groups(calib.executor, pending.specs,
                           end_day=pending.window.end_day,
                           engine_options=calib.config.engine_options,
                           **calib._shard_layout_kwargs())


@pytest.fixture(scope="module")
def small_truth():
    params = DiseaseParameters(population=50_000, initial_exposed=100)
    return make_ground_truth(params=params, horizon=35, seed=555,
                             theta_schedule=PiecewiseConstant.constant(0.30),
                             rho_schedule=PiecewiseConstant.constant(0.7))


def calibrator(schedule, truth, *, base_seed=17, executor=None,
               param_map=None, prior=None, jitter=None, n_continuations=1):
    return SequentialCalibrator(
        base_params=truth.params,
        prior=prior or paper_first_window_prior(),
        jitter=jitter or paper_window_jitter(),
        observation_model=paper_observation_model(),
        schedule=schedule,
        config=SMCConfig(n_parameter_draws=40, n_replicates=2,
                         resample_size=60, base_seed=base_seed,
                         n_continuations=n_continuations),
        executor=executor,
        param_map=param_map)


class TestConfig:
    def test_batched_engine_is_default(self):
        assert SMCConfig().engine == "binomial_leap_batched"
        assert CalibrationConfig().engine == "binomial_leap_batched"
        # A class constant, not a settable field.
        assert "engine" not in {f.name for f in dataclasses.fields(SMCConfig)}
        with pytest.raises(dataclasses.FrozenInstanceError):
            SMCConfig().engine = "binomial_leap"  # type: ignore[misc]

    def test_scalar_engines_not_batched(self):
        """Scalar engines no longer configure the calibrator: they are
        test oracles only."""
        for name in ("binomial_leap", "gillespie"):
            with pytest.raises(TypeError, match="engine"):
                SMCConfig(engine=name)
            with pytest.raises(TypeError, match="engine"):
                CalibrationConfig(engine=name)

    def test_unknown_engine_rejected_eagerly(self):
        with pytest.raises(TypeError, match="engine"):
            SMCConfig(engine="bogus_engine")


class TestScalarBatchedParity:
    """Acceptance: one continuation window, restarted batched and through
    the per-particle scalar oracle from the same parents with the same
    parameters and seeds, agrees in distribution."""

    @pytest.fixture(scope="class")
    def runs(self, small_truth):
        schedule = WindowSchedule.from_breaks([10, 20, 30])
        return calibrator(schedule, small_truth).run(
            small_truth.observations())

    @pytest.fixture(scope="class")
    def window(self, small_truth, runs):
        """Window 1 proposed from the real window-0 posterior, then
        simulated both ways and weighed against the same observations."""
        calib = calibrator(WindowSchedule.from_breaks([10, 20, 30]),
                           small_truth)
        obs = small_truth.observations()
        window1 = list(calib.schedule)[1]
        pending = calib.propose_window(1, window1, runs[0].posterior)
        batched = calib.assemble_window(pending, _simulate(calib, pending))
        oracle = window_oracle(pending)
        return {name: (ensemble, calib.weigh_window(
                    1, window1, ensemble, obs,
                    sim_days=pending.sim_days).posterior)
                for name, ensemble in (("batched", batched),
                                       ("oracle", oracle))}

    @staticmethod
    def totals(ensemble, channel):
        return np.array([p.segment.series(channel).values.sum()
                         for p in ensemble])

    def test_per_window_credible_intervals_overlap(self, window):
        for channel in ("cases", "deaths"):
            lo_s, hi_s = np.quantile(
                self.totals(window["oracle"][0], channel), [0.05, 0.95])
            lo_b, hi_b = np.quantile(
                self.totals(window["batched"][0], channel), [0.05, 0.95])
            assert lo_b <= hi_s and lo_s <= hi_b, (
                f"{channel} totals: oracle [{lo_s:.0f}, {hi_s:.0f}] vs "
                f"batched [{lo_b:.0f}, {hi_b:.0f}] do not overlap")
        for name in ("theta", "rho"):
            lo_s, hi_s = window["oracle"][1].credible_interval(name, 0.9)
            lo_b, hi_b = window["batched"][1].credible_interval(name, 0.9)
            assert lo_b <= hi_s and lo_s <= hi_b, (
                f"{name}: oracle [{lo_s:.3f}, {hi_s:.3f}] vs "
                f"batched [{lo_b:.3f}, {hi_b:.3f}] do not overlap")

    def test_posterior_means_close(self, window):
        cases_s = self.totals(window["oracle"][0], "cases").mean()
        cases_b = self.totals(window["batched"][0], "cases").mean()
        assert cases_b == pytest.approx(cases_s, rel=0.15)
        t_s = window["oracle"][1].weighted_mean("theta")
        t_b = window["batched"][1].weighted_mean("theta")
        assert t_b == pytest.approx(t_s, abs=0.08)

    #: sha256 of the oracle's window-1 segments, recorded when the oracle
    #: restarted per-particle JSON checkpoints; restarting the same rows of
    #: the columnar restart state must reproduce it bit for bit.
    ORACLE_SEGMENTS_SHA256 = ("85ee58557fd8b6b3f2ccdfc1ee929232"
                              "b7f3c7eedb118cd7d846cf57a9cb466c")

    def test_oracle_segments_digest(self, window):
        segments = window["oracle"][0].segments
        h = hashlib.sha256()
        for channel in ("infections", "deaths", "hospital_census",
                        "icu_census"):
            h.update(getattr(segments, channel).tobytes())
        assert h.hexdigest() == self.ORACLE_SEGMENTS_SHA256

    def test_batched_particles_carry_scalar_checkpoints(self, runs):
        """Every posterior's restart rows restart the scalar engine."""
        for result in runs:
            restart = result.posterior.restart
            assert restart.n_particles == len(result.posterior)
            assert restart.day == result.window.end_day
            engine = BinomialLeapEngine.from_state_row(restart, 0, seed=1)
            assert engine.day == result.window.end_day

    def test_batched_histories_contiguous(self, runs):
        final = runs[-1].posterior
        for p in final.particles[:10]:
            assert p.history.start_day == 0
            assert p.history.end_day == 30
            assert p.segment.start_day == 20


class TestBatchedRunBehaviour:
    def test_reproducible_given_base_seed(self, small_truth):
        schedule = WindowSchedule.from_breaks([10, 20])
        obs = small_truth.observations()
        r1 = calibrator(schedule, small_truth).run(obs)
        r2 = calibrator(schedule, small_truth).run(obs)
        assert np.array_equal(r1[0].posterior.values("theta"),
                              r2[0].posterior.values("theta"))
        assert np.array_equal(r1[0].posterior.values("rho"),
                              r2[0].posterior.values("rho"))

    def test_serial_executor_gets_one_shard_per_window(self, small_truth):
        """Auto shard policy on a serial executor: one whole-group shard
        task per window, never one task per particle."""
        class SpyExecutor(SerialExecutor):
            task_counts = []

            def map(self, fn, tasks):
                tasks = list(tasks)
                SpyExecutor.task_counts.append(len(tasks))
                return super().map(fn, tasks)

        schedule = WindowSchedule.from_breaks([10, 20, 30])
        spy = SpyExecutor()
        calibrator(schedule, small_truth, executor=spy).run(
            small_truth.observations())
        # Two windows (first + one continuation), one structural group each.
        assert SpyExecutor.task_counts == [1, 1]

    def test_burn_in_start_honoured_by_both_paths(self, small_truth):
        """The fused step and the split propose/simulate/assemble phases
        share the burn-in clock."""
        obs = small_truth.observations()
        schedule = WindowSchedule.from_breaks([12, 22], burn_in_start=4)
        calib = calibrator(schedule, small_truth)
        window0 = list(schedule)[0]
        fused = calib.step_window(0, window0, obs).posterior[0]
        pending = calib.propose_window(0, window0)
        assert pending.sim_days == 18
        split = calib.assemble_window(pending, _simulate(calib, pending))[0]
        for p in (fused, split):
            assert p.history.start_day == 4
            assert p.segment.start_day == 12
            assert p.history.end_day == 22

    def test_multiple_continuations(self, small_truth):
        schedule = WindowSchedule.from_breaks([10, 20, 30])
        results = calibrator(schedule, small_truth,
                             n_continuations=2).run(
            small_truth.observations())
        assert len(results[-1].posterior) == 60

    def test_structural_param_map_splits_batches(self, small_truth):
        """A param_map touching a structural field still calibrates."""
        prior = IndependentProduct({
            "theta": Uniform(0.1, 0.5),
            "rho": Beta(4, 1),
            "mild": Uniform(0.85, 0.97),
        })
        jitter = JointJitter({"theta": UniformJitter.symmetric(0.05),
                              "rho": UniformJitter.symmetric(0.02),
                              "mild": UniformJitter.symmetric(0.01)})
        schedule = WindowSchedule.from_breaks([10, 20])
        calib = SequentialCalibrator(
            base_params=small_truth.params, prior=prior, jitter=jitter,
            observation_model=paper_observation_model(), schedule=schedule,
            config=SMCConfig(n_parameter_draws=8, n_replicates=2,
                             resample_size=12, base_seed=5),
            param_map={"theta": "transmission_rate",
                       "mild": "mild_fraction"})
        result = calib.run(small_truth.observations())[0]
        assert len(result.posterior) == 12
        # Each particle's restart row carries its own structural draw.
        restart, post = result.posterior.restart, result.posterior
        assert restart.params["mild_fraction"] == pytest.approx(
            post.values("mild"))
        assert restart.params["transmission_rate"] == pytest.approx(
            post.values("theta"))


def structural_calibrator(truth, *, mild=None, theta=None):
    """Theta and the (structural) mild fraction both calibrated, so each
    window's cloud splits into many structural groups."""
    prior = IndependentProduct({
        "theta": theta or Uniform(0.1, 0.5),
        "rho": Beta(4, 1),
        "mild": mild or Uniform(0.85, 0.97),
    })
    jitter = JointJitter({
        "theta": UniformJitter.symmetric(0.05, bounds=(0.0, 1.0)),
        "rho": UniformJitter.symmetric(0.02, bounds=(0.05, 1.0)),
        "mild": UniformJitter.symmetric(0.01, bounds=(0.0, 1.0))})
    return SequentialCalibrator(
        base_params=truth.params, prior=prior, jitter=jitter,
        observation_model=paper_observation_model(),
        schedule=WindowSchedule.from_breaks([10, 20, 30]),
        config=SMCConfig(n_parameter_draws=8, n_replicates=2,
                         resample_size=12, n_continuations=2, base_seed=5),
        param_map={"theta": "transmission_rate", "mild": "mild_fraction"})


class TestStructuralParamMapBits:
    """Pinned bits of a calibration whose structural ``param_map`` gives
    many groups per window.  The digests were recorded from the
    per-member ``DiseaseParameters`` implementation; the columnar path
    must reproduce them exactly."""

    POSTERIOR_SHA256 = ("825c0a674b05813705ae9a1047b07499"
                        "7d637084ee0e700ea34f5cc99e776eea")
    FORECAST_SHA256 = ("2eb0f7d31173c6e7f9e83f3927d16a98"
                       "a981349a5dd232b2f824877a7536dc69")

    def test_posterior_and_forecast_digests(self, small_truth):
        import hashlib

        from repro.inference import forecast_from_posterior
        calib = structural_calibrator(small_truth)
        results = calib.run(small_truth.observations())
        pending = calib.propose_window(1, list(calib.schedule)[1],
                                       results[0].posterior)
        assert len(pending.groups) > 1
        h = hashlib.sha256()
        for r in results:
            post = r.posterior
            for name in ("theta", "rho", "mild"):
                h.update(np.asarray(post.values(name),
                                    dtype=np.float64).tobytes())
            h.update(np.asarray(post.seeds(), dtype=np.int64).tobytes())
            h.update(np.asarray(post.ancestors(), dtype=np.int64).tobytes())
            h.update(post.restart.counts.tobytes())
            for name in sorted(post.restart.params):
                column = post.restart.params[name]
                h.update(name.encode() + str(column.dtype).encode()
                         + column.tobytes())
        assert h.hexdigest() == self.POSTERIOR_SHA256
        forecast = forecast_from_posterior(results[-1].posterior, 6,
                                           base_seed=3, n_per_particle=2)
        assert hashlib.sha256(
            forecast.batch.infections.tobytes()
            + forecast.batch.deaths.tobytes()).hexdigest() \
            == self.FORECAST_SHA256

    @pytest.mark.parametrize("field, prior_name, value", [
        ("transmission_rate", "theta", -0.1),
        ("mild_fraction", "mild", 1.2)])
    def test_invalid_draw_raises_the_scalar_message(self, small_truth,
                                                    field, prior_name,
                                                    value):
        calib = structural_calibrator(small_truth,
                                      **{prior_name: Dirac(value)})
        with pytest.raises(ValueError) as scalar:
            small_truth.params.with_updates(**{field: value})
        with pytest.raises(ValueError) as columnar:
            calib.run(small_truth.observations())
        assert str(columnar.value) == str(scalar.value)
