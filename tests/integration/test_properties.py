"""Property-based tests (hypothesis) on core invariants."""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (effective_sample_size, logsumexp,
                        normalize_log_weights, weighted_quantile)
from repro.core.resampling import RESAMPLERS
from repro.data import TimeSeries, concat
from repro.hpc import chunk_sizes, partition_bounds

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
log_weight_arrays = hnp.arrays(np.float64, st.integers(1, 60),
                               elements=st.floats(min_value=-700,
                                                  max_value=10,
                                                  allow_nan=False))


class TestWeightInvariants:
    @given(log_weight_arrays)
    def test_normalised_weights_are_distribution(self, lw):
        w = normalize_log_weights(lw)
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) < 1e-9

    @given(log_weight_arrays, st.floats(min_value=-50, max_value=50))
    def test_normalisation_shift_invariant(self, lw, shift):
        a = normalize_log_weights(lw)
        b = normalize_log_weights(lw + shift)
        assert np.allclose(a, b, atol=1e-9)

    @given(log_weight_arrays)
    def test_ess_bounds(self, lw):
        w = normalize_log_weights(lw)
        ess = effective_sample_size(w)
        assert 1.0 - 1e-9 <= ess <= len(w) + 1e-9

    @given(log_weight_arrays)
    def test_logsumexp_upper_bound(self, lw):
        out = logsumexp(lw)
        assert out >= lw.max() - 1e-12
        assert out <= lw.max() + np.log(len(lw)) + 1e-9

    @given(hnp.arrays(np.float64, st.integers(2, 40),
                      elements=finite_floats),
           st.floats(min_value=0.0, max_value=1.0))
    def test_weighted_quantile_in_range(self, values, q):
        w = np.full(len(values), 1.0 / len(values))
        out = weighted_quantile(values, w, q)
        assert values.min() - 1e-12 <= out <= values.max() + 1e-12


class TestResamplerInvariants:
    @given(st.sampled_from(sorted(RESAMPLERS)),
           hnp.arrays(np.float64, st.integers(1, 30),
                      elements=st.floats(min_value=0, max_value=100)),
           st.integers(1, 50), st.integers(0, 2**32 - 1))
    def test_indices_valid_and_positive_weight(self, name, raw_w, n_out, seed):
        if raw_w.sum() <= 0:
            raw_w = raw_w + 1.0
        rng = np.random.Generator(np.random.PCG64(seed))
        idx = RESAMPLERS[name](raw_w, n_out, rng)
        assert idx.shape == (n_out,)
        assert np.all((idx >= 0) & (idx < len(raw_w)))
        assert np.all(raw_w[idx] > 0)


class TestPartitionInvariants:
    @given(st.integers(0, 200), st.integers(1, 16))
    def test_block_partition_complete_disjoint(self, n, parts):
        covered = [i for lo, hi in partition_bounds(n, parts)
                   for i in range(lo, hi)]
        assert covered == list(range(n))

    @given(st.integers(0, 200), st.integers(1, 16))
    def test_chunk_sizes_sum(self, n, parts):
        sizes = chunk_sizes(n, parts)
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1


class TestSeriesInvariants:
    @given(hnp.arrays(np.float64, st.integers(1, 50),
                      elements=finite_floats),
           st.integers(-100, 100))
    def test_cumulative_diff_round_trip(self, values, start):
        ts = TimeSeries(start, values)
        back = ts.cumulative().diff()
        assert np.allclose(back.values, ts.values, atol=1e-6)

    @given(hnp.arrays(np.float64, st.integers(1, 30),
                      elements=finite_floats),
           hnp.arrays(np.float64, st.integers(1, 30),
                      elements=finite_floats))
    def test_concat_window_round_trip(self, a_vals, b_vals):
        a = TimeSeries(0, a_vals)
        b = TimeSeries(len(a_vals), b_vals)
        merged = concat(a, b)
        assert merged.window(0, len(a_vals)) == a
        assert merged.window(len(a_vals), len(a_vals) + len(b_vals)) == b

    @given(hnp.arrays(np.float64, st.integers(2, 40),
                      elements=finite_floats),
           st.data())
    def test_window_of_window(self, values, data):
        ts = TimeSeries(0, values)
        n = len(values)
        lo = data.draw(st.integers(0, n - 1))
        hi = data.draw(st.integers(lo + 1, n))
        w = ts.window(lo, hi)
        assert len(w) == hi - lo
        assert w.value_on(lo) == ts.value_on(lo)


class TestBatchedWeightingInvariants:
    """The batched weighting stack must agree with the scalar reference."""

    count_matrices = hnp.arrays(
        np.float64, st.tuples(st.integers(1, 12), st.integers(1, 20)),
        elements=st.floats(min_value=0, max_value=5_000))

    @settings(max_examples=30, deadline=None)
    @given(count_matrices, st.data())
    def test_batched_logliks_match_scalar(self, eta, data):
        from repro.core import GaussianTransformLikelihood
        from repro.testing.weighting import gaussian_sqrt_loglik
        y = data.draw(hnp.arrays(np.float64, eta.shape[1],
                                 elements=st.floats(min_value=0,
                                                    max_value=5_000)))
        for sigma in (1.0, 2.5):
            batched = GaussianTransformLikelihood(sigma).loglik_batch(y, eta)
            scalar = np.array([gaussian_sqrt_loglik(y, row, sigma)
                               for row in eta])
            assert batched.shape == (eta.shape[0],)
            assert np.allclose(batched, scalar, rtol=1e-10, atol=1e-8)

    @settings(max_examples=30)
    @given(count_matrices, st.data())
    def test_batched_bias_matches_scalar(self, counts, data):
        from repro.core import BinomialBiasModel
        from repro.testing.weighting import thin
        rho = data.draw(hnp.arrays(
            np.float64, counts.shape[0],
            elements=st.floats(min_value=0.01, max_value=1.0)))
        seed = data.draw(st.integers(0, 2**32 - 1))
        mean_b = BinomialBiasModel("mean").apply_batch(counts, rho)
        mean_s = np.vstack([thin(counts[i], rho[i], "mean")
                            for i in range(len(rho))])
        assert np.array_equal(mean_b, mean_s)
        r1 = np.random.Generator(np.random.PCG64(seed))
        r2 = np.random.Generator(np.random.PCG64(seed))
        sample_b = BinomialBiasModel("sample").apply_batch(counts, rho, r1)
        sample_s = np.vstack([thin(counts[i], rho[i], "sample", r2)
                              for i in range(len(rho))])
        assert np.array_equal(sample_b, sample_s)
        assert np.all(sample_b <= np.rint(counts))


class TestAdaptiveSizingInvariants:
    """Adaptive ensemble sizing must not move the posterior.

    Whatever (reasonable) ESS band, clamp bounds, and base seed the policy
    runs with, its per-window 90% credible intervals must overlap the
    fixed-size oracle's on the synthetic ground-truth scenario — resizing
    the cloud changes the Monte Carlo budget, not the target distribution.
    """

    BREAKS = (10, 20, 30)

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _truth():
        from repro.data import PiecewiseConstant
        from repro.seir import DiseaseParameters
        from repro.sim import make_ground_truth
        params = DiseaseParameters(population=50_000, initial_exposed=100)
        return make_ground_truth(
            params=params, horizon=35, seed=555,
            theta_schedule=PiecewiseConstant.constant(0.30),
            rho_schedule=PiecewiseConstant.constant(0.7))

    @classmethod
    def _calibrate(cls, base_seed, size_policy="fixed", options=None):
        from repro.core import (SequentialCalibrator, SMCConfig,
                                WindowSchedule, paper_first_window_prior,
                                paper_observation_model, paper_window_jitter)
        truth = cls._truth()
        calib = SequentialCalibrator(
            base_params=truth.params,
            prior=paper_first_window_prior(),
            jitter=paper_window_jitter(),
            observation_model=paper_observation_model(),
            schedule=WindowSchedule.from_breaks(list(cls.BREAKS)),
            config=SMCConfig(n_parameter_draws=40, n_replicates=2,
                             resample_size=60, base_seed=base_seed,
                             size_policy=size_policy,
                             size_policy_options=dict(options or {})))
        return calib.run(truth.observations())

    @classmethod
    @functools.lru_cache(maxsize=None)
    def _oracle(cls):
        """The fixed-size reference run, computed once per session."""
        return cls._calibrate(base_seed=17)

    @settings(max_examples=5, deadline=None)
    @given(base_seed=st.sampled_from([17, 99, 4242]),
           target_low=st.sampled_from([0.02, 0.05, 0.1]),
           target_high=st.sampled_from([0.3, 0.5]),
           n_min=st.sampled_from([24, 48]))
    def test_adaptive_ci_overlaps_fixed_oracle(self, base_seed, target_low,
                                               target_high, n_min):
        oracle = self._oracle()
        adaptive = self._calibrate(
            base_seed, size_policy="ess",
            options={"target_low": target_low, "target_high": target_high,
                     "n_min": n_min, "n_max": 240})
        assert len(adaptive) == len(oracle)
        for w, (a, o) in enumerate(zip(adaptive, oracle)):
            assert 24 <= a.diagnostics.n_particles <= 240 or w == 0
            for name in ("theta", "rho"):
                lo_a, hi_a = a.posterior.credible_interval(name, 0.9)
                lo_o, hi_o = o.posterior.credible_interval(name, 0.9)
                assert lo_a <= hi_o and lo_o <= hi_a, (
                    f"window {w} {name}: adaptive [{lo_a:.3f}, {hi_a:.3f}] "
                    f"left the fixed-size oracle's [{lo_o:.3f}, {hi_o:.3f}] "
                    f"(policy band [{target_low}, {target_high}], "
                    f"seed {base_seed})")


class TestTemperedBridgeInvariants:
    """The staged tempered bridge targets the same posterior as one pass.

    On non-degenerate weight vectors (ESS fraction comfortably above the
    calibrator's degeneracy threshold) the tempered resample's 90% interval
    over any particle statistic must overlap the plain-multinomial
    oracle's — the bridge changes the resampling noise, not the target.
    """

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           n=st.integers(60, 300),
           concentration=st.floats(min_value=0.1, max_value=2.0),
           floor=st.sampled_from([0.3, 0.5, 0.7]))
    def test_tempered_ci90_overlaps_plain_multinomial_oracle(
            self, seed, n, concentration, floor):
        from hypothesis import assume
        from repro.core import temper_and_resample
        from repro.core.resampling import multinomial_resample
        from repro.core.weights import ess_fraction, weighted_quantile
        rng = np.random.Generator(np.random.PCG64(seed))
        values = rng.normal(0.0, 1.0, size=n)
        log_lik = -0.5 * concentration * (values - 0.3) ** 2
        w = normalize_log_weights(log_lik)
        assume(ess_fraction(w) >= 0.2)  # a non-degenerate window

        tempered = temper_and_resample(
            log_lik, n, np.random.Generator(np.random.PCG64(seed + 1)),
            ess_floor_fraction=floor)
        plain = multinomial_resample(
            w, n, np.random.Generator(np.random.PCG64(seed + 2)))
        uniform = np.full(n, 1.0 / n)
        lo_t, hi_t = (weighted_quantile(values[tempered.indices], uniform, q)
                      for q in (0.05, 0.95))
        lo_p, hi_p = (weighted_quantile(values[plain], uniform, q)
                      for q in (0.05, 0.95))
        assert lo_t <= hi_p and lo_p <= hi_t, (
            f"tempered CI90 [{lo_t:.3f}, {hi_t:.3f}] left the plain "
            f"oracle's [{lo_p:.3f}, {hi_p:.3f}] (n={n}, "
            f"concentration={concentration:.2f}, floor={floor})")


class TestBiasInvariants:
    @settings(max_examples=25)
    @given(hnp.arrays(np.int64, st.integers(1, 30),
                      elements=st.integers(0, 10_000)),
           st.floats(min_value=0.01, max_value=1.0),
           st.integers(0, 2**32 - 1))
    def test_thinning_bounded(self, counts, rho, seed):
        from repro.testing.weighting import thin
        rng = np.random.Generator(np.random.PCG64(seed))
        out = thin(counts.astype(float), rho, "sample", rng)
        assert np.all(out >= 0)
        assert np.all(out <= counts)


class TestScenarioBatchInvariants:
    """Per-scenario posteriors are invariant to sweep composition.

    Whatever subset of scenarios rides in a sweep, and in whatever request
    order, each member's windows must be bit-identical to calibrating that
    scenario alone (``docs/scenarios.md`` oracle b, property-tested over
    the composition space rather than one pinned batch).
    """

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _pool():
        from repro.core.scenarios import (ScenarioOverride, ScenarioSpec,
                                          get_scenario)
        return {
            "baseline": get_scenario("baseline"),
            "mild16": ScenarioSpec("mild16", overrides=(
                ScenarioOverride("mild_fraction", 0.97, start_day=16),)),
            "milder16": ScenarioSpec("milder16", overrides=(
                ScenarioOverride("mild_fraction", 0.99, start_day=16),)),
            "detect24": ScenarioSpec("detect24", overrides=(
                ScenarioOverride("detected_rel_infectiousness", 0.05,
                                 start_day=24),)),
        }

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _truth():
        from repro.testing import parity_truth
        return parity_truth()

    @classmethod
    @functools.lru_cache(maxsize=None)
    def _alone(cls, name):
        """Standalone reference run for one scenario (cached per session)."""
        from repro.testing import parity_calibrator
        truth = cls._truth()
        calib = parity_calibrator(truth, scenario=cls._pool()[name])
        return calib.run(truth.observations())

    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_posterior_invariant_to_batch_composition_and_order(self, data):
        from repro.testing import assert_runs_identical, parity_sweep
        names = sorted(self._pool())
        subset = data.draw(st.lists(st.sampled_from(names), min_size=1,
                                    max_size=len(names), unique=True))
        order = data.draw(st.permutations(subset))
        truth = self._truth()
        sweep = parity_sweep(truth, [self._pool()[n] for n in order])
        results = sweep.run(truth.observations())
        for name in subset:
            assert_runs_identical(
                self._alone(name), results[name],
                f"sweep {list(order)}, scenario {name}")
