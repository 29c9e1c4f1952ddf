"""Integration tests for fault-tolerant calibration.

Acceptance properties under test (see docs/fault_tolerance.md):

* a calibration run under injected chaos (crashes, drops, corrupted
  results, delays) with a retry policy converges to **bit-identical**
  posteriors vs the fault-free run;
* serial and process-pool runs agree bitwise even when the pooled run
  needs injected retries;
* a run killed after window ``k`` and resumed from its checkpoint store
  reproduces the remaining windows bit-identically, and a store written
  under a different configuration is refused.
"""

import json

import numpy as np
import pytest

from repro.core import (SequentialCalibrator, SMCConfig, WindowSchedule,
                        paper_first_window_prior, paper_observation_model,
                        paper_window_jitter)
from repro.data import PiecewiseConstant
from repro.hpc import (CheckpointStore, ProcessExecutor, RetryPolicy,
                       SerialExecutor, ShardRetryError)
from repro.seir import CheckpointError, DiseaseParameters
from repro.sim import make_ground_truth
from repro.testing.chaos import ChaosExecutor, Fault, FaultPlan


@pytest.fixture(scope="module")
def small_truth():
    params = DiseaseParameters(population=50_000, initial_exposed=100)
    return make_ground_truth(params=params, horizon=35, seed=555,
                             theta_schedule=PiecewiseConstant.constant(0.30),
                             rho_schedule=PiecewiseConstant.constant(0.7))


def make_calibrator(truth, *, executor=None, base_seed=17,
                    breaks=(8, 16, 24, 32), progress=None, **config_kwargs):
    config_kwargs.setdefault("n_shards", 3)
    return SequentialCalibrator(
        base_params=truth.params,
        prior=paper_first_window_prior(),
        jitter=paper_window_jitter(),
        observation_model=paper_observation_model(),
        schedule=WindowSchedule.from_breaks(list(breaks)),
        config=SMCConfig(n_parameter_draws=30, n_replicates=2,
                         resample_size=40, base_seed=base_seed,
                         **config_kwargs),
        executor=executor, progress=progress)


def run_calibration(truth, **kwargs):
    return make_calibrator(truth, **kwargs).run(truth.observations())


def _statistical_diagnostics(diag):
    """Diagnostics minus execution metadata (recovered-failure counts
    legitimately differ between a clean run and a retried chaos run while
    the statistical state stays bit-identical)."""
    d = diag.to_dict()
    d.pop("shard_failures")
    d.pop("shard_failure_causes")
    return d


def assert_posteriors_identical(a, b, *, compare_trajectories=True):
    """Bitwise identity of two runs' posterior samples and diagnostics."""
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.index == rb.index
        assert _statistical_diagnostics(ra.diagnostics) == \
            _statistical_diagnostics(rb.diagnostics)
        for name in ("theta", "rho"):
            assert np.array_equal(ra.posterior.values(name),
                                  rb.posterior.values(name))
        assert np.array_equal(ra.posterior.seeds(), rb.posterior.seeds())
        assert np.array_equal(ra.posterior.ancestors(),
                              rb.posterior.ancestors())
        if compare_trajectories:
            assert np.array_equal(ra.posterior.segments.infections,
                                  rb.posterior.segments.infections)
            assert np.array_equal(ra.posterior.restart.counts,
                                  rb.posterior.restart.counts)


class TestConfigValidation:
    def test_retry_field_type_checked(self):
        with pytest.raises(ValueError, match="retry"):
            SMCConfig(retry=3)
        assert SMCConfig(retry=RetryPolicy()).retry.max_attempts == 3


class TestResumeCompatibility:
    """The fingerprint is pinned: a change to it makes every existing store
    unresumable, so it changes only with a deliberate ``format_version``
    bump (``engine``, ``weighting``, ``resampler`` and the two
    ``resample_size_policy`` entries stay constants for that reason)."""

    #: ``run_fingerprint()`` of the default ``CalibrationConfig`` calibrator
    #: on a serial executor, for the one-file-per-window store layout, in
    #: the key order ``run_meta.json`` is written in.
    DEFAULT_FINGERPRINT = {
        "format_version": 2,
        "base_seed": 20240215,
        "engine": "binomial_leap_batched",
        "engine_options": {"steps_per_day": 4},
        "shard_layout": {"n_shards": 1},
        "n_parameter_draws": 500,
        "n_replicates": 5,
        "resample_size": 500,
        "n_continuations": 1,
        "resampler": "multinomial",
        "weighting": "batched",
        "size_policy": "fixed",
        "size_policy_options": {},
        "resample_size_policy": "fixed",
        "resample_size_policy_options": {},
        "temper": [False, 0.05, 0.5, "systematic"],
        "schedule": ["Days 20-33", "Days 34-47", "Days 48-61",
                     "Days 62-75"],
        "burn_in_start": 0,
        "param_map": {"theta": "transmission_rate"},
    }

    def test_default_fingerprint_pinned(self, tmp_path):
        from repro.inference import CalibrationConfig
        config = CalibrationConfig()
        calib = SequentialCalibrator(
            base_params=config.disease_params(None), prior=config.prior(),
            jitter=config.jitter(),
            observation_model=config.observation_model(),
            schedule=config.schedule(), config=config.smc_config(),
            executor=SerialExecutor())
        assert calib.run_fingerprint() == self.DEFAULT_FINGERPRINT
        assert list(calib.run_fingerprint()) == list(self.DEFAULT_FINGERPRINT)
        store = CheckpointStore(tmp_path)
        store.validate_run_meta(calib.run_fingerprint())
        # Byte-identical run_meta.json: a store written before the
        # posterior-size options were deleted still resumes.
        assert (tmp_path / "run_meta.json").read_text() == \
            json.dumps(self.DEFAULT_FINGERPRINT)
        store.validate_run_meta(self.DEFAULT_FINGERPRINT)

    def test_per_particle_layout_store_refused(self, tmp_path):
        """A store written in the per-particle layout (format 1) fails
        loudly instead of resuming from window 0 over its old windows."""
        store = CheckpointStore(tmp_path)
        store.write_run_meta({**self.DEFAULT_FINGERPRINT, "format_version": 1})
        with pytest.raises(CheckpointError,
                           match=r"differing keys: \['format_version'\]"):
            store.validate_run_meta(self.DEFAULT_FINGERPRINT)


class TestChaosCalibration:
    def test_seeded_chaos_bit_identical(self, small_truth):
        """Acceptance: randomized-but-reproducible fault injection across
        every window, retried to bit-identical convergence."""
        clean = run_calibration(small_truth)
        plan = FaultPlan.seeded(
            4242, n_shards=3, max_attempts=3,
            rates={"crash": 0.25, "drop": 0.15, "corrupt": 0.15,
                   "delay": 0.15}, delay_seconds=0.001)
        chaos = ChaosExecutor(SerialExecutor(), plan)
        faulty = run_calibration(
            small_truth, executor=chaos,
            retry=RetryPolicy(max_attempts=4, fallback_serial=True))
        assert chaos.injected, "the plan must actually inject faults"
        assert_posteriors_identical(clean, faulty)
        # Recovery events surface uniformly in diagnostics and summaries.
        assert all(r.diagnostics.shard_failures == 0 for r in clean)
        assert sum(r.diagnostics.shard_failures for r in faulty) > 0
        for r in faulty:
            assert len(r.diagnostics.shard_failure_causes) == \
                r.diagnostics.shard_failures
            assert r.summary()["shard_failures"] == \
                r.diagnostics.shard_failures

    def test_serial_vs_process_with_injected_retries(self, small_truth):
        """Acceptance: a process pool needing retries agrees bitwise with
        an untouched serial run."""
        clean = run_calibration(small_truth, breaks=(10, 20, 30))
        plan = FaultPlan.scripted(
            Fault(kind="crash", shard=0, attempt=1),
            Fault(kind="corrupt", shard=2, attempt=2),
            Fault(kind="drop", shard=1, attempt=3))
        with ProcessExecutor(max_workers=2) as pool:
            chaos = ChaosExecutor(pool, plan)
            faulty = run_calibration(
                small_truth, breaks=(10, 20, 30), executor=chaos,
                retry=RetryPolicy(max_attempts=4))
        assert chaos.injected
        assert_posteriors_identical(clean, faulty)

    def test_shard_failures_reported_to_progress(self, small_truth):
        messages = []
        plan = FaultPlan.scripted(Fault(kind="crash", shard=0, attempt=1))
        chaos = ChaosExecutor(SerialExecutor(), plan)
        run_calibration(small_truth, executor=chaos, progress=messages.append,
                        retry=RetryPolicy(max_attempts=3))
        assert any("shard 0 attempt 1 failed" in m and "retrying" in m
                   for m in messages)

    def test_default_policy_fails_fast_and_reports_no_retry(self,
                                                            small_truth):
        messages = []
        plan = FaultPlan.scripted(Fault(kind="crash", shard=0, attempt=1))
        chaos = ChaosExecutor(SerialExecutor(), plan)
        with pytest.raises(ShardRetryError, match="ChaosInjectedError"):
            run_calibration(small_truth, executor=chaos,
                            progress=messages.append)
        failed = [m for m in messages if "shard 0 attempt 1 failed" in m]
        assert failed and not any("retrying" in m for m in failed)


class _KillAfterWindow(RuntimeError):
    pass


def _killer(stop_prefix):
    def progress(message):
        if message.startswith(stop_prefix):
            raise _KillAfterWindow(message)
    return progress


class TestKillAndResume:
    def test_resume_is_bit_identical(self, small_truth, tmp_path):
        store_dir = tmp_path / "ckpt"
        full = run_calibration(small_truth)

        # Interrupted run: dies right after window 1 is persisted.
        calib = make_calibrator(small_truth,
                                progress=_killer("window 1 ("))
        with pytest.raises(_KillAfterWindow):
            calib.run(small_truth.observations(),
                      store=CheckpointStore(store_dir))

        store = CheckpointStore(store_dir)
        assert store.window_complete(0) and store.window_complete(1)
        assert not store.window_complete(2)

        # Resumed run restores windows 0-1 and recomputes only window 2.
        messages = []
        resumer = make_calibrator(small_truth, progress=messages.append)
        resumed = resumer.run(small_truth.observations(),
                              store=CheckpointStore(store_dir), resume=True)
        assert resumer.resumed_from == 1
        assert any(m.startswith("resuming after window 1") for m in messages)
        assert not any(m.startswith("window 0 (") or m.startswith("window 1 (")
                       for m in messages)

        assert_posteriors_identical(full, resumed,
                                    compare_trajectories=False)
        # The recomputed window carries full trajectories: compare those too.
        assert_posteriors_identical(full[2:], resumed[2:])
        # All three windows are now sealed in the store.
        assert all(store.window_complete(w) for w in (0, 1, 2))

    def test_resume_from_empty_store_runs_everything(self, small_truth,
                                                     tmp_path):
        clean = run_calibration(small_truth)
        calib = make_calibrator(small_truth)
        results = calib.run(small_truth.observations(),
                            store=CheckpointStore(tmp_path), resume=True)
        assert calib.resumed_from is None
        assert_posteriors_identical(clean, results)

    def test_resume_without_store_rejected(self, small_truth):
        calib = make_calibrator(small_truth)
        with pytest.raises(ValueError, match="requires a checkpoint store"):
            calib.run(small_truth.observations(), resume=True)

    def test_inconsistent_stored_samples_refused(self, small_truth,
                                                 tmp_path):
        """A window whose stored samples disagree on parameter names (a
        hand-edited or damaged state.json) is refused on resume."""
        store = CheckpointStore(tmp_path)
        make_calibrator(small_truth, breaks=(8, 16)).run(
            small_truth.observations(), store=store)
        path = tmp_path / "window_000" / "state.json"
        meta = json.loads(path.read_text())
        del meta["params"][0]["rho"]
        path.write_text(json.dumps(meta))
        with pytest.raises(CheckpointError, match="disagree on parameters"):
            make_calibrator(small_truth, breaks=(8, 16)).run(
                small_truth.observations(), store=store, resume=True)

    def test_mismatched_configuration_refused(self, small_truth, tmp_path):
        store = CheckpointStore(tmp_path)
        calib = make_calibrator(small_truth, base_seed=17)
        calib.run(small_truth.observations(), store=store)
        other = make_calibrator(small_truth, base_seed=18)
        with pytest.raises(CheckpointError,
                           match="different run configuration"):
            other.run(small_truth.observations(), store=CheckpointStore(
                tmp_path), resume=True)


class TestScenarioSweepFaults:
    """Multi-scenario sweeps keep the fault-tolerance guarantees per
    scenario: chaos-retried and killed-and-resumed sweeps stay
    bit-identical to an undisturbed sweep, even though all scenarios'
    shards ride in one flattened dispatch."""

    @staticmethod
    def _mild16():
        from repro.core.scenarios import ScenarioOverride, ScenarioSpec
        return ScenarioSpec("mild16", overrides=(
            ScenarioOverride("mild_fraction", 0.97, start_day=16),))

    def test_chaos_sweep_bit_identical_per_scenario(self, small_truth):
        from repro.testing import assert_runs_identical, parity_sweep
        scenarios = ["baseline", self._mild16()]
        clean = parity_sweep(small_truth, scenarios).run(
            small_truth.observations())
        # The flattened dispatch runs up to 2 lines x 3 shards per window.
        plan = FaultPlan.seeded(
            777, n_shards=6, max_attempts=3,
            rates={"crash": 0.25, "drop": 0.15, "corrupt": 0.15},
            delay_seconds=0.001)
        chaos = ChaosExecutor(SerialExecutor(), plan)
        faulty_sweep = parity_sweep(
            small_truth, scenarios, executor=chaos,
            retry=RetryPolicy(max_attempts=4, fallback_serial=True))
        faulty = faulty_sweep.run(small_truth.observations())
        assert chaos.injected, "the plan must actually inject faults"
        for name in ("baseline", "mild16"):
            assert_runs_identical(clean[name], faulty[name],
                                  f"chaos sweep {name}")
        recovered = sum(r.diagnostics.shard_failures
                        for rs in faulty.values() for r in rs)
        assert recovered > 0

    def test_killed_sweep_resumes_bit_identical(self, small_truth, tmp_path):
        from repro.testing import parity_sweep
        scenarios = ["baseline", self._mild16()]
        reference = parity_sweep(small_truth, scenarios).run(
            small_truth.observations())

        def stores():
            return {name: CheckpointStore(tmp_path / name)
                    for name in ("baseline", "mild16")}

        # Killed right after baseline's window 1 line is persisted —
        # mild16's window 1 (a separate world-line) is not yet sealed, so
        # the two scenarios are interrupted at *different* depths.
        killer_sweep = parity_sweep(small_truth, scenarios,
                                    progress=_killer("[baseline] window 1 ("))
        with pytest.raises(_KillAfterWindow):
            killer_sweep.run(small_truth.observations(), stores=stores())
        assert CheckpointStore(tmp_path / "baseline").window_complete(1)
        assert not CheckpointStore(tmp_path / "mild16").window_complete(1)

        resumer = parity_sweep(small_truth, scenarios)
        resumed = resumer.run(small_truth.observations(), stores=stores(),
                              resume=True)
        assert resumer.resumed_from == {"baseline": 1, "mild16": 0}
        for name in ("baseline", "mild16"):
            for ref, res in zip(reference[name], resumed[name]):
                assert ref.index == res.index
                assert np.array_equal(ref.posterior.values("theta"),
                                      res.posterior.values("theta"))
                assert np.array_equal(ref.posterior.values("rho"),
                                      res.posterior.values("rho"))
                assert [p.seed for p in ref.posterior] == \
                    [p.seed for p in res.posterior]
        # Everything is sealed now.
        for name in ("baseline", "mild16"):
            store = CheckpointStore(tmp_path / name)
            assert all(store.window_complete(w) for w in range(3))
