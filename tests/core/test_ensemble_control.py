"""Unit tests for the adaptive ensemble-size policy.

Contract under test (see ``repro/core/ensemble_control.py``): the ``"ess"``
policy is a deterministic pure function of the window diagnostics, clamps
to ``[n_min, n_max]``, holds inside the hysteresis band, and responds
monotonically to the ESS fraction; ``SMCConfig`` accepts only the two
policy names.  Calibrator-level wiring (sizes actually
changing between windows) is covered here too at small scale; the
cross-executor/shard invariance of adaptive runs lives in
``test_sharded_simulation.py``.
"""

import numpy as np
import pytest

from repro.core import (SIZE_POLICY_NAMES, ESSTargetPolicy,
                        SequentialCalibrator, SMCConfig, WindowSchedule,
                        paper_first_window_prior, paper_observation_model,
                        paper_window_jitter)
from repro.core.diagnostics import compute_diagnostics
from repro.core.weights import normalize_log_weights
from repro.data import PiecewiseConstant
from repro.seir import DiseaseParameters
from repro.sim import make_ground_truth


def diag_with_ess_fraction(fraction: float, n: int = 1000):
    """Diagnostics whose ESS fraction is (approximately) ``fraction``.

    Built from a two-level weight vector: ``k`` particles carry all the
    mass, giving ESS ~= k, so ess_fraction ~= k / n.
    """
    k = max(1, int(round(fraction * n)))
    lw = np.full(n, -1e9)
    lw[:k] = 0.0
    w = normalize_log_weights(lw)
    d = compute_diagnostics(lw, w, unique_ancestors=k)
    assert d.ess_fraction == pytest.approx(k / n, rel=1e-6)
    return d


def next_size(policy, fraction, current=1000):
    return policy.next_size(current_size=current,
                            diagnostics=diag_with_ess_fraction(fraction))


def pinned(size):
    """The ``"ess"`` policy clamped to one size: every continuation window
    proposes ``size`` draws, whatever the ESS."""
    return dict(size_policy="ess",
                size_policy_options={"n_min": size, "n_max": size})


class TestESSTargetPolicy:
    def test_grows_below_band(self):
        policy = ESSTargetPolicy(target_low=0.2, target_high=0.5,
                                 growth_factor=2.0, n_min=10, n_max=10_000)
        assert next_size(policy, 0.05) == 2000

    def test_shrinks_above_band(self):
        policy = ESSTargetPolicy(target_low=0.2, target_high=0.5,
                                 shrink_factor=0.5, n_min=10, n_max=10_000)
        assert next_size(policy, 0.8) == 500

    def test_hysteresis_holds_inside_band(self):
        policy = ESSTargetPolicy(target_low=0.2, target_high=0.5,
                                 n_min=10, n_max=10_000)
        for f in (0.25, 0.35, 0.45):
            assert next_size(policy, f) == 1000

    def test_clamped_to_bounds(self):
        policy = ESSTargetPolicy(target_low=0.2, target_high=0.5,
                                 growth_factor=4.0, shrink_factor=0.25,
                                 n_min=800, n_max=1500)
        assert next_size(policy, 0.01) == 1500   # 4000 clamped down
        assert next_size(policy, 0.99) == 800    # 250 clamped up

    def test_monotone_response_to_ess(self):
        """Lower ESS never yields a smaller next cloud."""
        policy = ESSTargetPolicy(target_low=0.15, target_high=0.6,
                                 n_min=50, n_max=50_000)
        fractions = np.linspace(0.01, 0.99, 25)
        sizes = [next_size(policy, float(f)) for f in fractions]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            ESSTargetPolicy(target_low=0.5, target_high=0.5)
        with pytest.raises(ValueError):
            ESSTargetPolicy(target_low=0.0, target_high=0.5)
        with pytest.raises(ValueError):
            ESSTargetPolicy(growth_factor=0.5)
        with pytest.raises(ValueError):
            ESSTargetPolicy(shrink_factor=0.0)
        with pytest.raises(ValueError):
            ESSTargetPolicy(n_min=100, n_max=50)


class TestFactoryAndResolution:
    """``SMCConfig`` resolves ``size_policy`` by name and builds the
    ``"ess"`` policy from its options up front."""

    def test_named_policies(self):
        assert SIZE_POLICY_NAMES == ("fixed", "ess")
        for name in SIZE_POLICY_NAMES:
            assert SMCConfig(size_policy=name).size_policy == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="size_policy must be one of"):
            SMCConfig(size_policy="bogus")

    def test_policy_object_rejected(self):
        """Only the two names reach the calibrator; a policy object is
        refused, not consulted."""
        with pytest.raises(ValueError, match="size_policy must be one of"):
            SMCConfig(size_policy=ESSTargetPolicy())

    def test_options_with_fixed_rejected(self):
        with pytest.raises(ValueError, match="size_policy_options"):
            SMCConfig(size_policy="fixed", size_policy_options={"n_min": 5})

    def test_smc_config_validates_policy_eagerly(self):
        with pytest.raises(ValueError):
            SMCConfig(size_policy="ess",
                      size_policy_options={"target_low": 0.9,
                                           "target_high": 0.5})
        SMCConfig(size_policy="ess", size_policy_options={"n_min": 5})


class TestCalibratorWiring:
    @pytest.fixture(scope="class")
    def small_truth(self):
        params = DiseaseParameters(population=50_000, initial_exposed=100)
        return make_ground_truth(params=params, horizon=35, seed=555,
                                 theta_schedule=PiecewiseConstant.constant(0.30),
                                 rho_schedule=PiecewiseConstant.constant(0.7))

    def run(self, truth, **config_kwargs):
        calib = SequentialCalibrator(
            base_params=truth.params,
            prior=paper_first_window_prior(),
            jitter=paper_window_jitter(),
            observation_model=paper_observation_model(),
            schedule=WindowSchedule.from_breaks([10, 18, 26, 34]),
            config=SMCConfig(n_parameter_draws=30, n_replicates=2,
                             resample_size=40, base_seed=17, **config_kwargs))
        return calib.run(truth.observations())

    def test_fixed_policy_matches_classic_sizes(self, small_truth):
        results = self.run(small_truth)
        sizes = [r.diagnostics.n_particles for r in results]
        assert sizes == [60, 40, 40]

    def test_pinned_policy_resizes_every_continuation(self, small_truth):
        results = self.run(small_truth, **pinned(25))
        sizes = [r.diagnostics.n_particles for r in results]
        assert sizes == [60, 25, 25]
        # posterior size is unchanged by the cloud size
        assert all(len(r.posterior) == 40 for r in results)

    def test_growth_revisits_parents_cyclically(self, small_truth):
        results = self.run(small_truth, **pinned(100))
        assert [r.diagnostics.n_particles for r in results] == [60, 100, 100]

    def test_particle_steps_recorded(self, small_truth):
        results = self.run(small_truth, **pinned(25))
        # window 0 simulates burn-in 0..10 plus the window to day 10+8
        assert results[0].diagnostics.particle_steps == 60 * 18
        assert results[1].diagnostics.particle_steps == 25 * 8

    def test_ess_grow_scales_the_realised_first_window_cloud(self, small_truth):
        """Regression (window-0 current_size contract): the policy scales
        the cloud the ESS fraction was measured on — after window 0 that is
        the realised ``n_parameter_draws * n_replicates`` prior cloud (60),
        not the planned continuation size (40).  An always-grow policy must
        therefore double 60, not 40."""
        results = self.run(small_truth, size_policy="ess",
                           size_policy_options={"target_low": 0.9,
                                                "target_high": 0.95,
                                                "growth_factor": 2.0,
                                                "n_min": 10,
                                                "n_max": 100_000})
        assert all(r.diagnostics.ess_fraction < 0.9 for r in results)
        assert [r.diagnostics.n_particles for r in results] == [60, 120, 240]

    def test_ess_policy_changes_sizes_deterministically(self, small_truth):
        kwargs = dict(size_policy="ess",
                      size_policy_options={"target_low": 0.3,
                                           "target_high": 0.6,
                                           "n_min": 20, "n_max": 120})
        a = self.run(small_truth, **kwargs)
        b = self.run(small_truth, **kwargs)
        sizes_a = [r.diagnostics.n_particles for r in a]
        sizes_b = [r.diagnostics.n_particles for r in b]
        assert sizes_a == sizes_b
        assert all(20 <= n <= 120 for n in sizes_a[1:])
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.posterior.values("theta"),
                                  rb.posterior.values("theta"))
