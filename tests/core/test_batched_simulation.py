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

from repro.core import (Beta, Dirac, IndependentProduct,
                        SequentialCalibrator, SMCConfig, WindowSchedule,
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
               prior=None, jitter=None, n_continuations=1):
    return SequentialCalibrator(
        base_params=truth.params,
        prior=prior or paper_first_window_prior(),
        jitter=jitter or paper_window_jitter(),
        observation_model=paper_observation_model(),
        schedule=schedule,
        config=SMCConfig(n_parameter_draws=40, n_replicates=2,
                         resample_size=60, base_seed=base_seed,
                         n_continuations=n_continuations),
        executor=executor)


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
        return ensemble.segments.channel_matrix(channel).sum(axis=1)

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
        assert final.histories.start_day == 0
        assert final.histories.end_day == 30
        assert final.segments.start_day == 20
        assert np.array_equal(final.histories.window(20, 30).infections,
                              final.segments.infections)


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
        # Two windows (first + one continuation), one batch each.
        assert SpyExecutor.task_counts == [1, 1]

    def test_burn_in_start_honoured_by_both_paths(self, small_truth):
        """The fused step and the split propose/simulate/assemble phases
        share the burn-in clock."""
        obs = small_truth.observations()
        schedule = WindowSchedule.from_breaks([12, 22], burn_in_start=4)
        calib = calibrator(schedule, small_truth)
        window0 = list(schedule)[0]
        fused = calib.step_window(0, window0, obs).posterior
        pending = calib.propose_window(0, window0)
        assert pending.sim_days == 18
        split = calib.assemble_window(pending, _simulate(calib, pending))
        for ens in (fused, split):
            assert ens.histories.start_day == 4
            assert ens.segments.start_day == 12
            assert ens.histories.end_day == 22

    def test_multiple_continuations(self, small_truth):
        schedule = WindowSchedule.from_breaks([10, 20, 30])
        results = calibrator(schedule, small_truth,
                             n_continuations=2).run(
            small_truth.observations())
        assert len(results[-1].posterior) == 60

    def test_invalid_draw_raises_the_scalar_message(self, small_truth):
        """A theta draw outside its range fails the way a scalar
        ``DiseaseParameters`` would."""
        calib = calibrator(WindowSchedule.from_breaks([10, 20]), small_truth,
                           prior=IndependentProduct({"theta": Dirac(-0.1),
                                                     "rho": Beta(4, 1)}))
        with pytest.raises(ValueError) as scalar:
            small_truth.params.with_updates(transmission_rate=-0.1)
        with pytest.raises(ValueError) as columnar:
            calib.run(small_truth.observations())
        assert str(columnar.value) == str(scalar.value)
