"""Unit tests for the vectorized ensemble weighting subsystem.

Covers the batched stack end to end: ``BinomialBiasModel.apply_batch``,
``GaussianTransformLikelihood.loglik_batch``,
``ParticleEnsemble.segment_matrix``, ``ObservationModel.loglik_ensemble``,
and its parity with the per-particle reference
(:mod:`repro.testing.weighting`) on a real calibrator window.
"""

import numpy as np
import pytest

from repro.core import (BinomialBiasModel, GaussianTransformLikelihood,
                        Particle, ParticleEnsemble, SMCConfig,
                        paper_likelihood, paper_observation_model)
from repro.data import CASES, DEATHS, ObservationSet, ObservationSource, TimeSeries
from repro.hpc.sharding import simulate_groups
from repro.seir import Trajectory
from repro.testing.weighting import gaussian_sqrt_loglik, loglik_reference, thin

GAUSSIANS = [paper_likelihood(), GaussianTransformLikelihood(sigma=2.5)]


def count_matrix(rng, n=20, d=14, hi=400):
    return rng.integers(0, hi, size=(n, d)).astype(np.float64)


def make_ensemble(rng, n=20, d=14, start=10):
    """Particles whose segments carry random case/death counts."""
    particles = []
    for i in range(n):
        traj = Trajectory(start,
                          rng.integers(0, 300, size=d).astype(float),
                          rng.integers(0, 9, size=d).astype(float),
                          np.zeros(d), np.zeros(d))
        particles.append(Particle(
            params={"theta": 0.2 + 0.01 * i, "rho": 0.3 + 0.02 * (i % 30)},
            seed=i, segment=traj))
    return ParticleEnsemble(particles)


def make_observations(rng, d=14, start=10):
    return ObservationSet.of(
        ObservationSource(CASES, TimeSeries(start, rng.integers(0, 200, size=d)),
                          channel=CASES, biased=True),
        ObservationSource(DEATHS, TimeSeries(start, rng.integers(0, 6, size=d)),
                          channel=DEATHS, biased=False))


class TestApplyBatch:
    def test_mean_mode_matches_per_particle(self, rng):
        counts = count_matrix(rng)
        rho = rng.uniform(0.1, 1.0, size=counts.shape[0])
        m = BinomialBiasModel("mean")
        batched = m.apply_batch(counts, rho)
        rows = np.vstack([thin(counts[i], rho[i], "mean")
                          for i in range(len(rho))])
        assert np.array_equal(batched, rows)

    def test_sample_mode_bit_matches_sequential_loop(self, rng):
        """The draw-order contract: one batched call consumes the stream
        exactly as a particle-major sequential loop would."""
        counts = count_matrix(rng)
        rho = rng.uniform(0.1, 1.0, size=counts.shape[0])
        m = BinomialBiasModel("sample")
        r1 = np.random.Generator(np.random.PCG64(7))
        r2 = np.random.Generator(np.random.PCG64(7))
        batched = m.apply_batch(counts, rho, r1)
        rows = np.vstack([thin(counts[i], rho[i], "sample", r2)
                          for i in range(len(rho))])
        assert np.array_equal(batched, rows)

    def test_sample_bounded_by_true(self, rng):
        counts = count_matrix(rng)
        rho = rng.uniform(0.1, 1.0, size=counts.shape[0])
        out = BinomialBiasModel("sample").apply_batch(counts, rho, rng)
        assert np.all(out >= 0)
        assert np.all(out <= counts)

    def test_sample_requires_rng(self, rng):
        with pytest.raises(ValueError, match="rng"):
            BinomialBiasModel("sample").apply_batch(
                count_matrix(rng), np.full(20, 0.5))

    def test_matrix_shape_enforced(self, rng):
        with pytest.raises(ValueError, match="n_particles, n_days"):
            BinomialBiasModel("mean").apply_batch(np.zeros(5), np.full(5, 0.5))

    def test_rho_per_particle_enforced(self, rng):
        counts = count_matrix(rng, n=6)
        with pytest.raises(ValueError, match="one entry per particle"):
            BinomialBiasModel("mean").apply_batch(counts, np.full(4, 0.5))

    def test_rho_range_validated(self, rng):
        counts = count_matrix(rng, n=3)
        for bad in (0.0, -0.2, 1.3):
            rho = np.array([0.5, bad, 0.7])
            with pytest.raises(ValueError, match="rho"):
                BinomialBiasModel("mean").apply_batch(counts, rho)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            BinomialBiasModel("mean").apply_batch(
                np.array([[1.0, -2.0]]), np.array([0.5]))


class TestLoglikBatch:
    @pytest.mark.parametrize("lik", GAUSSIANS, ids=repr)
    def test_matches_scalar_rows(self, lik, rng):
        y = rng.integers(0, 300, size=14).astype(float)
        eta = count_matrix(rng, n=25)
        batched = lik.loglik_batch(y, eta)
        scalar = np.array([gaussian_sqrt_loglik(y, row, lik.sigma)
                           for row in eta])
        assert batched.shape == (25,)
        assert np.allclose(batched, scalar, rtol=1e-12, atol=1e-9)

    def test_day_axis_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="day-axis"):
            paper_likelihood().loglik_batch(np.zeros(3), np.zeros((4, 5)))

    def test_matrix_required(self):
        with pytest.raises(ValueError, match="n_particles, n_days"):
            paper_likelihood().loglik_batch(np.zeros(3), np.zeros(3))

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            paper_likelihood().loglik_batch(np.zeros(0), np.zeros((4, 0)))


class TestSegmentMatrix:
    def test_stacks_channel_values(self, rng):
        ens = make_ensemble(rng, n=7, d=10)
        mat = ens.segment_matrix(CASES)
        assert mat.shape == (7, 10)
        for i, p in enumerate(ens):
            assert np.array_equal(mat[i], p.segment.infections)

    def test_windowing(self, rng):
        ens = make_ensemble(rng, n=4, d=10, start=20)
        mat = ens.segment_matrix(DEATHS, 23, 27)
        assert mat.shape == (4, 4)
        assert np.array_equal(mat[0], ens[0].segment.deaths[3:7])

    def test_missing_segment_rejected(self):
        ens = ParticleEnsemble([Particle(params={"rho": 0.5}, seed=0)])
        with pytest.raises(ValueError, match="missing segment"):
            ens.segment_matrix(CASES)

    def test_uncovered_window_rejected(self, rng):
        ens = make_ensemble(rng, n=3, d=10, start=20)
        with pytest.raises(ValueError, match="does not cover"):
            ens.segment_matrix(CASES, 18, 25)

    def test_unknown_channel_rejected(self, rng):
        ens = make_ensemble(rng, n=2)
        with pytest.raises(KeyError, match="unknown channel"):
            ens.segment_matrix("r_effective")


class TestLoglikEnsemble:
    def test_mean_mode_matches_scalar_loglik(self, rng):
        ens = make_ensemble(rng, n=30)
        obs = make_observations(rng)
        om = paper_observation_model(bias_mode="mean")
        rho = ens.values("rho")
        batched = om.loglik_ensemble(obs, ens, rho, rng)
        scalar = loglik_reference(om, obs, ens, rng)
        assert np.allclose(batched, scalar, rtol=1e-12, atol=1e-9)

    def test_sample_mode_matches_scalar_with_single_biased_source(self, rng):
        """One biased source: source-major and particle-major draw orders
        coincide, so under a shared seed the paths consume identical thinning
        draws and agree up to float reduction order."""
        ens = make_ensemble(rng, n=30)
        obs = make_observations(rng)
        om = paper_observation_model(bias_mode="sample")
        r1 = np.random.Generator(np.random.PCG64(11))
        r2 = np.random.Generator(np.random.PCG64(11))
        batched = om.loglik_ensemble(obs, ens, ens.values("rho"), r1)
        scalar = loglik_reference(om, obs, ens, r2)
        assert np.allclose(batched, scalar, rtol=1e-12, atol=1e-9)

    def test_unconfigured_stream_rejected(self, rng):
        ens = make_ensemble(rng)
        icu = ObservationSource("icu", TimeSeries(10, np.zeros(14)),
                                channel="icu_census", biased=False)
        obs = ObservationSet(make_observations(rng).sources + (icu,))
        om = paper_observation_model(bias_mode="mean")
        with pytest.raises(KeyError, match="no SourceModel"):
            om.loglik_ensemble(obs, ens, ens.values("rho"), rng)

    def test_rho_length_enforced(self, rng):
        ens = make_ensemble(rng, n=8)
        obs = make_observations(rng)
        om = paper_observation_model(bias_mode="mean")
        with pytest.raises(ValueError, match="one entry per particle"):
            om.loglik_ensemble(obs, ens, np.full(5, 0.5), rng)


class TestCalibratorParity:
    """``loglik_ensemble`` against the per-particle reference
    (``repro.testing.loglik_reference``) on a real calibrator window: a continuation ensemble assembled
    from the batched engine, scored against cases and deaths."""

    @pytest.fixture(scope="class")
    def truth(self):
        from repro.data import PiecewiseConstant
        from repro.seir import DiseaseParameters
        from repro.sim import make_ground_truth
        params = DiseaseParameters(population=50_000, initial_exposed=100)
        return make_ground_truth(params=params, horizon=32, seed=99,
                                 theta_schedule=PiecewiseConstant.constant(0.30),
                                 rho_schedule=PiecewiseConstant.constant(0.7))

    def calibrator(self, truth, seed=31):
        from repro.core import (SequentialCalibrator, WindowSchedule,
                                paper_first_window_prior, paper_window_jitter)
        return SequentialCalibrator(
            base_params=truth.params,
            prior=paper_first_window_prior(),
            jitter=paper_window_jitter(),
            observation_model=paper_observation_model(),
            schedule=WindowSchedule.from_breaks([10, 20, 30]),
            config=SMCConfig(n_parameter_draws=25, n_replicates=2,
                             resample_size=30, base_seed=seed))

    @pytest.fixture(scope="class")
    def window(self, truth):
        """Window 1's ensemble and observations, built by the calibrator."""
        calib = self.calibrator(truth)
        obs = truth.observations(include_deaths=True)
        window0, window1 = list(calib.schedule)
        posterior = calib.step_window(0, window0, obs).posterior
        pending = calib.propose_window(1, window1, posterior)
        ensemble = calib.assemble_window(pending, simulate_groups(
            calib.executor, pending.specs, end_day=window1.end_day,
            engine_options=calib.config.engine_options,
            **calib._shard_layout_kwargs()))
        return ensemble, obs.window(window1.start_day, window1.end_day)

    @pytest.mark.parametrize("bias_mode", ["mean", "sample"])
    def test_batched_equals_scalar_reference(self, window, bias_mode):
        """Equal in "mean" mode — to the last ulps of float summation order,
        so the resampled posterior is bit-identical; in "sample" mode the
        thinning draws are random, so the batched scores must match the
        loop's in distribution: per-particle means over independent streams
        agree within sampling error."""
        from repro.core.resampling import get_resampler
        from repro.core.weights import normalize_log_weights

        ensemble, obs = window
        om = paper_observation_model(bias_mode=bias_mode)
        rho = ensemble.values("rho")
        if bias_mode == "mean":
            batched = om.loglik_ensemble(obs, ensemble, rho, None)
            scalar = loglik_reference(om, obs, ensemble, None)
            np.testing.assert_allclose(batched, scalar, rtol=1e-13, atol=0)

            def resampled(log_weights):
                return get_resampler("multinomial")(
                    normalize_log_weights(log_weights), len(log_weights),
                    np.random.Generator(np.random.PCG64(5)))
            assert np.array_equal(resampled(batched), resampled(scalar))
            return
        reps = 40
        batched = np.stack([
            om.loglik_ensemble(obs, ensemble, rho,
                               np.random.Generator(np.random.PCG64(r)))
            for r in range(reps)])
        scalar = np.stack([
            loglik_reference(om, obs, ensemble,
                             np.random.Generator(np.random.PCG64(1000 + r)))
            for r in range(reps)])
        gap = np.abs(batched.mean(axis=0) - scalar.mean(axis=0))
        stderr = np.sqrt((batched.var(axis=0) + scalar.var(axis=0)) / reps)
        assert np.all(gap <= 5 * stderr + 1e-9)

    def test_batched_run_bit_reproducible(self, truth):
        obs = truth.observations()
        r1 = self.calibrator(truth).run(obs)
        r2 = self.calibrator(truth).run(obs)
        for a, b in zip(r1, r2):
            assert np.array_equal(a.posterior.values("theta"),
                                  b.posterior.values("theta"))
            assert np.array_equal(a.posterior.seeds(), b.posterior.seeds())

    def test_weighting_config_validated(self):
        """Weighting is always batched; the option no longer exists."""
        with pytest.raises(TypeError, match="weighting"):
            SMCConfig(weighting="scalar")
