"""Calibrator wiring of the tempered rescue.

Contract under test (see ``repro/core/smc.py``): with
``temper_degenerate`` set, a window whose pre-resampling ESS fraction falls
below ``temper_threshold`` is resampled through
:func:`repro.core.adaptive.temper_and_resample` (the staged bridge), drawing
from the same window-indexed resampling stream as the plain pass — so runs
stay bit-reproducible per ``(base_seed, shard layout)`` and identical across
executors — and the realised schedule lands in the window's diagnostics.
The bridge composes with the proposal-cloud size policy.
"""

import numpy as np
import pytest

from repro.core import (SequentialCalibrator, SMCConfig, WindowSchedule,
                        paper_first_window_prior, paper_observation_model,
                        paper_window_jitter)
from repro.data import PiecewiseConstant
from repro.hpc import ProcessExecutor, SerialExecutor
from repro.seir import DiseaseParameters
from repro.sim import make_ground_truth


@pytest.fixture(scope="module")
def small_truth():
    params = DiseaseParameters(population=50_000, initial_exposed=100)
    return make_ground_truth(params=params, horizon=35, seed=555,
                             theta_schedule=PiecewiseConstant.constant(0.30),
                             rho_schedule=PiecewiseConstant.constant(0.7))


def run_calibration(truth, *, sigma=0.3, executor=None,
                    breaks=(10, 18, 26, 34), **config_kwargs):
    """A deliberately sharp likelihood (small sigma) collapses the weights:
    with ``sigma=0.3`` every window's ESS fraction sits well below the
    default degeneracy threshold, so tempering (when enabled) engages."""
    calib = SequentialCalibrator(
        base_params=truth.params,
        prior=paper_first_window_prior(),
        jitter=paper_window_jitter(),
        observation_model=paper_observation_model(sigma=sigma),
        schedule=WindowSchedule.from_breaks(list(breaks)),
        config=SMCConfig(n_parameter_draws=40, n_replicates=2,
                         resample_size=60, base_seed=17, **config_kwargs),
        executor=executor)
    return calib.run(truth.observations())


def assert_runs_identical(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert len(ra.posterior) == len(rb.posterior)
        for name in ("theta", "rho"):
            assert np.array_equal(ra.posterior.values(name),
                                  rb.posterior.values(name))
        assert ra.diagnostics.temper_schedule == rb.diagnostics.temper_schedule
        assert ra.diagnostics.temper_stage_ess == rb.diagnostics.temper_stage_ess
        assert ra.diagnostics.temper_truncated == rb.diagnostics.temper_truncated


class TestTemperedRescueWiring:
    def test_degenerate_windows_route_through_multi_stage_bridge(
            self, small_truth):
        results = run_calibration(small_truth, temper_degenerate=True)
        tempered = [r for r in results if r.diagnostics.tempered]
        assert tempered, "no window engaged the bridge on a degenerate run"
        multi = [r for r in results if r.diagnostics.temper_stages > 1]
        assert multi, "degenerate windows should need more than one stage"
        for r in tempered:
            d = r.diagnostics
            assert d.ess_fraction < SMCConfig().temper_threshold
            assert d.temper_schedule[-1] == 1.0
            assert len(d.temper_stage_ess) == d.temper_stages
            assert not d.temper_truncated  # finished below the stage cap
            assert all(b2 > b1 for b1, b2 in zip(d.temper_schedule,
                                                 d.temper_schedule[1:]))
            assert len(r.posterior) == 60  # n_out honoured through the bridge

    def test_disabled_by_default_and_schedule_empty(self, small_truth):
        results = run_calibration(small_truth)
        assert all(not r.diagnostics.tempered for r in results)
        assert all(r.diagnostics.temper_schedule == () for r in results)

    def test_healthy_windows_keep_the_plain_pass(self, small_truth):
        """With the default likelihood no window is degenerate, so a
        temper-enabled run must be bit-identical to a plain one (the rescue
        only replaces the resampling pass when the ESS actually collapses)."""
        plain = run_calibration(small_truth, sigma=1.0)
        rescued = run_calibration(small_truth, sigma=1.0,
                                  temper_degenerate=True,
                                  temper_threshold=0.01)
        assert all(not r.diagnostics.tempered for r in rescued)
        assert_runs_identical(plain, rescued)

    def test_bit_reproducible_given_base_seed(self, small_truth):
        a = run_calibration(small_truth, temper_degenerate=True)
        b = run_calibration(small_truth, temper_degenerate=True)
        assert_runs_identical(a, b)

    def test_serial_vs_process_identical_for_fixed_layout(self, small_truth):
        """Acceptance: the tempered rescue preserves the sharding RNG
        contract — identical results (and schedules) across executors for a
        fixed (base_seed, shard layout)."""
        serial = run_calibration(small_truth, temper_degenerate=True,
                                 shard_size=25, executor=SerialExecutor())
        with ProcessExecutor(max_workers=2) as pool:
            pooled = run_calibration(small_truth, temper_degenerate=True,
                                     shard_size=25, executor=pool)
        assert any(r.diagnostics.temper_stages > 1 for r in serial)
        assert_runs_identical(serial, pooled)

    def test_threshold_gates_the_bridge(self, small_truth):
        """threshold=0 never tempers (no ESS fraction is below it)."""
        results = run_calibration(small_truth, temper_degenerate=True,
                                  temper_threshold=0.0)
        assert all(not r.diagnostics.tempered for r in results)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="temper_threshold"):
            SMCConfig(temper_threshold=1.5)
        with pytest.raises(ValueError, match="temper_ess_floor"):
            SMCConfig(temper_ess_floor=0.0)
        with pytest.raises(ValueError, match="temper_ess_floor"):
            SMCConfig(temper_ess_floor=1.0)

    def test_summary_exposes_temper_stages(self, small_truth):
        results = run_calibration(small_truth, temper_degenerate=True)
        s = results[0].summary()
        assert s["temper_stages"] == results[0].diagnostics.temper_stages
        assert s["resample_size"] == 60


class TestSizePolicyComposition:
    def test_grow_and_temper_compose(self, small_truth):
        """A proposal-cloud grow decision and a tempering pass can land on
        the same window, and the posterior keeps ``resample_size``."""
        results = run_calibration(
            small_truth, temper_degenerate=True, size_policy="ess",
            size_policy_options={"target_low": 0.9, "target_high": 0.95,
                                 "growth_factor": 2.0, "n_min": 10,
                                 "n_max": 100_000})
        assert [r.diagnostics.n_particles for r in results] == [80, 160, 320]
        assert any(r.diagnostics.temper_stages > 1
                   for r in results[1:]), "no grown window was bridged"
        assert [len(r.posterior) for r in results] == [60, 60, 60]
