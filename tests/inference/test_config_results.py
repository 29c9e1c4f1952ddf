"""Unit tests for the high-level configuration and result objects."""

import json

import numpy as np
import pytest

from repro.core import SMCConfig
from repro.hpc.faults import FAIL_FAST, RetryPolicy
from repro.inference import CalibrationConfig


def rebuilt(cfg: CalibrationConfig) -> CalibrationConfig:
    """``cfg`` rebuilt from its JSON-encoded ``to_dict`` (the config echo
    summaries and stores write): the payload must be complete and
    JSON-safe."""
    payload = json.loads(json.dumps(cfg.to_dict()))
    return CalibrationConfig(**{**payload, "window_breaks":
                                tuple(payload["window_breaks"])})


class TestCalibrationConfig:
    def test_defaults_build_core_objects(self):
        cfg = CalibrationConfig()
        assert len(cfg.schedule()) == 4
        assert set(cfg.prior().names) == {"theta", "rho"}
        assert set(cfg.jitter().names) == {"theta", "rho"}
        assert set(cfg.observation_model().names) == {"cases", "deaths"}
        assert isinstance(cfg, SMCConfig)
        assert cfg.smc_config() is cfg

    def test_paper_schedule_default(self):
        cfg = CalibrationConfig()
        labels = [w.label() for w in cfg.schedule()]
        assert labels == ["Days 20-33", "Days 34-47", "Days 48-61",
                          "Days 62-75"]

    def test_engine_options_only_for_leap(self):
        """The engine is always the batched leap, so steps_per_day always
        reaches it; naming another engine is refused."""
        leap = CalibrationConfig(steps_per_day=2)
        assert leap.engine_options == {"steps_per_day": 2}
        assert SMCConfig().engine_options == {"steps_per_day": 4}
        assert "engine" not in leap.to_dict()
        with pytest.raises(TypeError, match="engine"):
            CalibrationConfig(engine="gillespie")

    def test_round_trip(self):
        cfg = CalibrationConfig(n_parameter_draws=7, sigma=2.0)
        assert rebuilt(cfg) == cfg

    def test_temper_and_size_policy_round_trip(self):
        cfg = CalibrationConfig(
            temper_degenerate=True, temper_threshold=0.1,
            temper_ess_floor=0.25, size_policy="ess",
            size_policy_options={"target_low": 0.2, "target_high": 0.6})
        restored = rebuilt(cfg)
        assert restored == cfg
        assert restored.temper_degenerate
        assert restored.temper_threshold == 0.1
        assert restored.temper_ess_floor == 0.25
        assert restored.size_policy == "ess"
        assert restored.size_policy_options == {"target_low": 0.2,
                                                "target_high": 0.6}

    def test_executor_construction(self):
        ex = CalibrationConfig(executor="serial").make_executor()
        assert ex.workers == 1

    def test_retry_policy_off_by_default(self):
        cfg = CalibrationConfig()
        assert cfg.retry == FAIL_FAST
        assert SMCConfig().retry == FAIL_FAST

    @pytest.mark.parametrize("knobs, field", [
        ({"retry_attempts": 0}, "retry_attempts must be >= 1"),
        ({"retry_timeout": 0.0}, "retry_timeout must be positive"),
        ({"retry_backoff": -1.0}, "retry_backoff must be >= 0")])
    def test_retry_knobs_validated_at_construction(self, knobs, field):
        with pytest.raises(ValueError, match=field):
            CalibrationConfig(**knobs)

    @pytest.mark.parametrize("knobs, field", [
        ({"sigma": float("nan")}, "sigma must be finite and > 0"),
        ({"sigma": float("inf")}, "sigma must be finite and > 0"),
        ({"sigma": 0.0}, "sigma must be finite and > 0"),
        ({"sigma": -1.0}, "sigma must be finite and > 0"),
        ({"bias_mode": "bogus"}, "bias_mode must be 'sample' or 'mean'")])
    def test_observation_knobs_validated_at_construction(self, knobs, field):
        """A bad likelihood scale or bias mode fails when the config is
        built, naming the field, not after window 0 has been simulated."""
        with pytest.raises(ValueError, match=field):
            CalibrationConfig(**knobs)

    @pytest.mark.parametrize("knobs, field", [
        ({"steps_per_day": 0}, "steps_per_day must be >= 1"),
        ({"size_policy": "bogus"}, "size_policy must be one of"),
        ({"size_policy_options": {"n_min": 3}},
         "size_policy_options only apply to size_policy='ess'"),
        ({"n_shards": "many"}, "n_shards must be 'auto' or an int >= 1"),
        ({"shard_size": 0}, "shard_size must be >= 1"),
        ({"temper_threshold": 2.0}, "temper_threshold must lie in"),
        ({"n_continuations": 0}, "n_continuations must be >= 1"),
        ({"resample_size": 0}, "resample_size must be >= 1")])
    def test_smc_knobs_validated_at_construction(self, knobs, field):
        """A bad SMC knob fails when the config is built, naming the
        field, not inside the first window's dispatch (where a retrying
        shard policy would retry it)."""
        with pytest.raises(ValueError, match=f"^{field}"):
            CalibrationConfig(**knobs)

    def test_retry_policy_built_from_knobs(self):
        cfg = CalibrationConfig(retry_attempts=3, retry_timeout=30.0,
                                retry_backoff=0.5)
        policy = cfg.retry
        assert policy.max_attempts == 3
        assert policy.timeout_seconds == 30.0
        assert policy.backoff_seconds == 0.5
        assert SMCConfig(retry_attempts=3, retry_timeout=30.0,
                         retry_backoff=0.5).retry == policy
        # A timeout alone bounds the one fail-fast attempt.
        assert CalibrationConfig(retry_timeout=10.0).retry == \
            RetryPolicy(max_attempts=1, timeout_seconds=10.0)

    def test_checkpoint_store_built_from_dir(self, tmp_path):
        assert CalibrationConfig().checkpoint_store() is None
        cfg = CalibrationConfig(checkpoint_dir=str(tmp_path / "ck"),
                                base_seed=7)
        store = cfg.checkpoint_store()
        assert store.root == tmp_path / "ck"

    def test_fault_tolerance_round_trip(self):
        cfg = CalibrationConfig(retry_attempts=2, retry_backoff=0.1,
                                checkpoint_dir="ckpts", resume=True)
        assert rebuilt(cfg) == cfg


class TestCalibrationResult:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.data import PiecewiseConstant
        from repro.inference import calibrate
        from repro.seir import DiseaseParameters
        from repro.sim import make_ground_truth

        params = DiseaseParameters(population=30_000, initial_exposed=60)
        truth = make_ground_truth(
            params=params, horizon=30, seed=11,
            theta_schedule=PiecewiseConstant.constant(0.3),
            rho_schedule=PiecewiseConstant.constant(0.7))
        cfg = CalibrationConfig(window_breaks=(10, 20, 30),
                                n_parameter_draws=25, n_replicates=2,
                                resample_size=30, base_seed=2)
        return calibrate(truth.observations(include_deaths=True), cfg,
                         base_params=params)

    def test_structure(self, result):
        assert result.n_windows == 2
        assert len(result.final_posterior) == 30
        assert result.wall_time_seconds > 0

    def test_parameter_track(self, result):
        track = result.parameter_track("theta")
        assert track.means.shape == (2,)
        assert track.ci90.shape == (2, 2)
        assert np.all(track.ci90[:, 0] <= track.ci90[:, 1])
        assert track.window_labels == ("Days 10-19", "Days 20-29")

    def test_track_covers_helper(self, result):
        track = result.parameter_track("theta")
        lo, hi = track.ci90[0]
        assert track.covers(0, (lo + hi) / 2)
        assert not track.covers(0, hi + 1.0)

    def test_posterior_ribbon_spans_history(self, result):
        rib = result.posterior_ribbon("cases")
        assert rib.start_day == 0
        assert rib.n_days == 30
        assert np.all(rib.band(0.05) <= rib.band(0.95))

    def test_summary_and_describe(self, result):
        s = result.summary()
        assert s["n_windows"] == 2
        assert "theta" in s["parameters"]
        text = result.describe()
        assert "Days 10-19" in text

    def test_save_summary(self, result, tmp_path):
        import json
        path = tmp_path / "summary.json"
        result.save_summary(path)
        payload = json.loads(path.read_text())
        assert payload["n_windows"] == 2

    def test_ess_fractions(self, result):
        fr = result.ess_fractions()
        assert fr.shape == (2,)
        assert np.all((fr > 0) & (fr <= 1))

    def test_resample_sizes_and_tempered_windows(self, result):
        assert result.resample_sizes().tolist() == [30, 30]
        assert result.tempered_windows() == []  # tempering off by default
        s = result.summary()
        assert s["resample_sizes"] == [30, 30]
        assert s["tempered_windows"] == []

    def test_window_count_mismatch_rejected(self, result):
        from repro.inference import CalibrationResult
        with pytest.raises(ValueError):
            CalibrationResult(schedule=result.schedule,
                              windows=result.windows[:1],
                              config_payload={})

    def test_resumed_from_defaults_to_none(self, result):
        assert result.resumed_from is None
        assert result.summary()["resumed_from"] is None


class TestCalibrateCheckpointing:
    """calibrate() wiring of the durable checkpoint/resume path."""

    @pytest.fixture(scope="class")
    def truth(self):
        from repro.data import PiecewiseConstant
        from repro.seir import DiseaseParameters
        from repro.sim import make_ground_truth

        params = DiseaseParameters(population=30_000, initial_exposed=60)
        return make_ground_truth(
            params=params, horizon=30, seed=11,
            theta_schedule=PiecewiseConstant.constant(0.3),
            rho_schedule=PiecewiseConstant.constant(0.7))

    def config(self, tmp_path, **overrides):
        return CalibrationConfig(window_breaks=(10, 20, 30),
                                 n_parameter_draws=25, n_replicates=2,
                                 resample_size=30, base_seed=2,
                                 checkpoint_dir=str(tmp_path / "ck"),
                                 **overrides)

    def test_resume_reproduces_run(self, truth, tmp_path):
        import numpy as np

        from repro.inference import calibrate

        first = calibrate(truth.observations(), self.config(tmp_path),
                          base_params=truth.params)
        resumed = calibrate(truth.observations(),
                            self.config(tmp_path, resume=True),
                            base_params=truth.params)
        assert first.resumed_from is None
        assert resumed.resumed_from == first.n_windows - 1
        assert resumed.summary()["resumed_from"] == first.n_windows - 1
        for wa, wb in zip(first.windows, resumed.windows):
            assert np.array_equal(wa.posterior.values("theta"),
                                  wb.posterior.values("theta"))
            assert wa.diagnostics.to_dict() == wb.diagnostics.to_dict()


    @pytest.mark.parametrize("change", [{"sigma": 4.0},
                                        {"bias_mode": "mean"}])
    def test_resume_refused_across_observation_model_change(
            self, truth, tmp_path, change):
        """The observation model sets the weights, so a store written under
        the default one must not resume under another sigma or bias mode."""
        from repro.inference import calibrate
        from repro.seir import CheckpointError

        calibrate(truth.observations(), self.config(tmp_path),
                  base_params=truth.params)
        with pytest.raises(CheckpointError,
                           match=r"differing keys: \['observation'\]"):
            calibrate(truth.observations(),
                      self.config(tmp_path, resume=True, **change),
                      base_params=truth.params)


    def test_resume_refused_across_observed_streams(self, truth, tmp_path):
        """The observed streams set the weights, so a cases-only store must
        not resume a cases+deaths run, nor the reverse.  The fingerprint
        names them only when they are not cases alone, so cases-only
        stores keep the key set they were written with."""
        from repro.hpc import CheckpointStore
        from repro.inference import calibrate
        from repro.seir import CheckpointError

        both = truth.observations(include_deaths=True)
        for name, written, resumed in (("cases", truth.observations(), both),
                                       ("both", both, truth.observations())):
            calibrate(written, self.config(tmp_path),
                      base_params=truth.params,
                      store=CheckpointStore(tmp_path / name))
            with pytest.raises(CheckpointError,
                               match=r"differing keys: \['streams'\]"):
                calibrate(resumed, self.config(tmp_path, resume=True),
                          base_params=truth.params,
                          store=CheckpointStore(tmp_path / name))
        assert "streams" not in CheckpointStore(
            tmp_path / "cases").read_run_meta()
        assert CheckpointStore(tmp_path / "both").read_run_meta()[
            "streams"] == ["cases", "deaths"]


class TestScenarioResultCompat:
    """Scenario-era result plumbing stays back-compatible.

    Pre-scenario artefacts (constructor calls, stored summaries,
    diagnostics payloads) never mentioned a scenario; they must keep their
    exact meaning — implicitly "baseline" — while sweep results route one
    CalibrationResult per scenario."""

    @pytest.fixture(scope="class")
    def sweep_result(self):
        from repro.core.scenarios import ScenarioOverride, ScenarioSpec
        from repro.data import PiecewiseConstant
        from repro.inference import calibrate_scenarios
        from repro.seir import DiseaseParameters
        from repro.sim import make_ground_truth

        params = DiseaseParameters(population=30_000, initial_exposed=60)
        truth = make_ground_truth(
            params=params, horizon=30, seed=11,
            theta_schedule=PiecewiseConstant.constant(0.3),
            rho_schedule=PiecewiseConstant.constant(0.7))
        mild20 = ScenarioSpec("mild20", overrides=(
            ScenarioOverride("mild_fraction", 0.97, start_day=20),))
        cfg = CalibrationConfig(window_breaks=(10, 20, 30),
                                n_parameter_draws=25, n_replicates=2,
                                resample_size=30, base_seed=2)
        return calibrate_scenarios(truth.observations(include_deaths=True),
                                   scenarios=("baseline", mild20),
                                   config=cfg, base_params=params)

    def test_scenario_field_defaults_to_baseline(self, sweep_result):
        from repro.inference import CalibrationResult
        ref = sweep_result[0]
        legacy = CalibrationResult(schedule=ref.schedule, windows=ref.windows,
                                   config_payload={})
        assert legacy.scenario == "baseline"
        assert legacy.summary()["scenario"] == "baseline"

    def test_summary_carries_scenario(self, sweep_result):
        assert sweep_result["baseline"].summary()["scenario"] == "baseline"
        assert sweep_result["mild20"].summary()["scenario"] == "mild20"

    def test_getitem_by_name_and_index(self, sweep_result):
        assert sweep_result.names == ["baseline", "mild20"]
        assert sweep_result[0] is sweep_result["baseline"]
        assert sweep_result[1] is sweep_result["mild20"]
        assert len(sweep_result) == 2
        assert [r.scenario for r in sweep_result] == ["baseline", "mild20"]
        with pytest.raises(KeyError, match="nope"):
            sweep_result["nope"]

    def test_duplicate_scenarios_rejected(self, sweep_result):
        from repro.inference import ScenarioSweepResult
        with pytest.raises(ValueError, match="duplicate"):
            ScenarioSweepResult(results=(sweep_result[0], sweep_result[0]))

    def test_window_zero_deduplicated(self, sweep_result):
        # mild20 only diverges at day 20: window 0 is shared work.
        assert sweep_result.computed_windows == 3
        assert sweep_result.reused_windows == 1
        assert np.array_equal(
            sweep_result["baseline"].windows[0].posterior.values("theta"),
            sweep_result["mild20"].windows[0].posterior.values("theta"))

    def test_sweep_summary_round_trip(self, sweep_result, tmp_path):
        import json
        path = tmp_path / "sweep.json"
        sweep_result.save_summary(path)
        payload = json.loads(path.read_text())
        assert payload["scenarios"] == ["baseline", "mild20"]
        assert payload["computed_windows"] == 3
        assert payload["reused_windows"] == 1
        assert payload["results"]["mild20"]["scenario"] == "mild20"

    def test_diagnostics_payload_round_trip(self, sweep_result):
        from repro.core.diagnostics import WindowDiagnostics
        diag = sweep_result[0].windows[0].diagnostics
        assert WindowDiagnostics.from_dict(diag.to_dict()) == diag

    def test_diagnostics_tolerate_pre_scenario_payloads(self, sweep_result):
        """Payloads written before the optional keys existed still load."""
        from repro.core.diagnostics import WindowDiagnostics
        payload = sweep_result[0].windows[0].diagnostics.to_dict()
        for newer in ("particle_steps", "temper_schedule", "temper_stage_ess",
                      "shard_failures", "shard_failure_causes"):
            payload.pop(newer)
        restored = WindowDiagnostics.from_dict(payload)
        assert restored.n_particles == \
            sweep_result[0].windows[0].diagnostics.n_particles
        assert restored.shard_failures == 0
        assert restored.temper_schedule == ()
