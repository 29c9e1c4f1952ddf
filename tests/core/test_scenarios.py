"""Scenario axis: registry/spec units plus the parity-oracle suite.

Oracle guarantees under test (``docs/scenarios.md``):

(a) an N=1 sweep is **bit-identical** to the existing batched calibrator
    run without any scenario machinery;
(b) scenario *k* calibrated inside a multi-scenario sweep is
    **bit-identical** to scenario *k* calibrated alone — on the serial
    executor AND a process pool, under the pinned shard layout;
(c) a scenario's batched continuation window agrees **distributionally**
    with the per-particle scalar restart oracle over the same parents,
    effective parameters and seeds.

Plus the world-line deduplication contract: scenarios sharing effective
parameters through a window prefix share those windows' result objects;
lines split at divergence and never re-merge.
"""

import hashlib
import shutil
from dataclasses import replace

import numpy as np
import pytest

from repro.core.scenarios import (SCENARIO_SETS, SCENARIOS, ScenarioOverride,
                                  ScenarioRegistry, ScenarioSpec,
                                  get_scenario, register_scenario,
                                  scenario_set)
from repro.hpc import ProcessExecutor
from repro.hpc.sharding import simulate_groups
from repro.seir import CheckpointError, DiseaseParameters
from repro.testing import (assert_runs_identical, parity_calibrator,
                           parity_sweep, parity_truth, window_oracle)

# Mid-run overrides aligned with the parity breaks (8, 16, 24, 32):
# continuation windows start at days 16 and 24.
MILD16 = ScenarioSpec(
    "mild16", overrides=(
        ScenarioOverride("mild_fraction", 0.97, start_day=16),))
DETECT24 = ScenarioSpec(
    "detect24", overrides=(
        ScenarioOverride("detected_rel_infectiousness", 0.05, start_day=24),))


@pytest.fixture(scope="module")
def truth():
    return parity_truth()


@pytest.fixture(scope="module")
def sweep_and_results(truth):
    sweep = parity_sweep(truth, ["baseline", MILD16, DETECT24])
    return sweep, sweep.run(truth.observations())


def _posterior_digest(result):
    """sha256 over every window posterior's columns, seeds and ancestors."""
    h = hashlib.sha256()
    for window in result.windows:
        post = window.posterior
        for column in (post.values("theta"), post.values("rho"),
                       post.seeds(), post.ancestors()):
            h.update(np.ascontiguousarray(column).tobytes())
    return h.hexdigest()


def _store_bytes(root):
    """Every file of a checkpoint store, by path relative to its root."""
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


# --------------------------------------------------------------------- #
# units
# --------------------------------------------------------------------- #
class TestScenarioOverride:
    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown DiseaseParameters"):
            ScenarioOverride("not_a_field", 1.0)

    def test_non_finite_value_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ScenarioOverride("mild_fraction", float("nan"))
        with pytest.raises(ValueError, match="finite"):
            ScenarioOverride("mild_fraction", float("inf"))

    def test_negative_start_day_rejected(self):
        with pytest.raises(ValueError, match="start_day"):
            ScenarioOverride("mild_fraction", 0.9, start_day=-1)

    def test_structural_field_only_at_day_zero(self):
        ScenarioOverride("population", 10_000, start_day=0)  # fine
        with pytest.raises(ValueError, match="checkpoint-restart knobs"):
            ScenarioOverride("population", 10_000, start_day=10)

    def test_integer_field_requires_integral_value(self):
        with pytest.raises(ValueError, match="integer field"):
            ScenarioOverride("initial_exposed", 40.5)
        assert ScenarioOverride("initial_exposed", 40.0).coerced() == 40
        assert isinstance(ScenarioOverride("initial_exposed", 40).coerced(),
                          int)

    def test_to_dict(self):
        d = ScenarioOverride("mild_fraction", 0.97, start_day=16).to_dict()
        assert d == {"field": "mild_fraction", "value": 0.97,
                     "start_day": 16}


class TestScenarioSpec:
    def test_name_must_be_slug(self):
        for bad in ("", "has space", "has/slash", "ünïcode"):
            with pytest.raises(ValueError, match="slug"):
                ScenarioSpec(bad)

    def test_overrides_canonically_ordered(self):
        a = ScenarioSpec("s", overrides=(
            ScenarioOverride("mild_fraction", 0.97, start_day=16),
            ScenarioOverride("transmission_rate", 0.2, start_day=0)))
        b = ScenarioSpec("s", overrides=tuple(reversed(a.overrides)))
        assert a == b
        assert [o.start_day for o in a.overrides] == [0, 16]

    def test_duplicate_field_day_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            ScenarioSpec("s", overrides=(
                ScenarioOverride("mild_fraction", 0.97, start_day=16),
                ScenarioOverride("mild_fraction", 0.95, start_day=16)))

    def test_params_at_applies_reached_overrides(self):
        base = DiseaseParameters(population=20_000, initial_exposed=40)
        spec = MILD16
        assert spec.params_at(0, base) is base  # bit-for-bit: same object
        assert spec.params_at(15, base) is base
        after = spec.params_at(16, base)
        assert after.mild_fraction == 0.97
        assert after.population == base.population

    def test_later_start_day_wins_per_field(self):
        base = DiseaseParameters(population=20_000, initial_exposed=40)
        spec = ScenarioSpec("s", overrides=(
            ScenarioOverride("mild_fraction", 0.95, start_day=16),
            ScenarioOverride("mild_fraction", 0.99, start_day=24)))
        assert spec.params_at(16, base).mild_fraction == 0.95
        assert spec.params_at(24, base).mild_fraction == 0.99

    def test_is_baseline(self):
        assert ScenarioSpec("plain").is_baseline
        assert not MILD16.is_baseline

    def test_fingerprint_payload(self):
        payload = MILD16.fingerprint_payload()
        assert payload["name"] == "mild16"
        assert payload["overrides"][0]["field"] == "mild_fraction"
        # Pinned so stores written when scenarios could opt out of common
        # random numbers keep their fingerprints.
        assert payload["independent_streams"] is False


class TestScenarioRegistry:
    def test_register_get_roundtrip(self):
        reg = ScenarioRegistry()
        spec = reg.register(MILD16)
        assert reg.get("mild16") is spec
        assert "mild16" in reg and len(reg) == 1

    def test_identical_reregistration_is_noop(self):
        reg = ScenarioRegistry()
        reg.register(MILD16)
        again = ScenarioSpec("mild16", overrides=(
            ScenarioOverride("mild_fraction", 0.97, start_day=16),))
        assert reg.register(again) is reg.get("mild16")

    def test_rebinding_a_name_rejected(self):
        reg = ScenarioRegistry()
        reg.register(MILD16)
        with pytest.raises(ValueError, match="cannot be rebound"):
            reg.register(ScenarioSpec("mild16"))

    def test_unknown_name_lists_registered(self):
        reg = ScenarioRegistry()
        reg.register(MILD16)
        with pytest.raises(KeyError, match="mild16"):
            reg.get("nope")

    def test_names_sorted(self):
        reg = ScenarioRegistry()
        reg.register(ScenarioSpec("zz"))
        reg.register(ScenarioSpec("aa"))
        assert reg.names() == ["aa", "zz"]
        assert [s.name for s in reg] == ["aa", "zz"]

    def test_builtins_registered(self):
        for name in ("baseline", "milder_variant_d34",
                     "late_intervention_d48", "relaxed_detection_d48"):
            assert name in SCENARIOS
            assert get_scenario(name) is register_scenario(get_scenario(name))
        assert get_scenario("baseline").is_baseline

    def test_default_scenario_set(self):
        specs = scenario_set("default")
        assert [s.name for s in specs] == sorted(SCENARIO_SETS["default"])
        with pytest.raises(KeyError, match="unknown scenario set"):
            scenario_set("nope")


class TestCalibratorScenarioValidation:
    def test_override_day_must_sit_on_continuation_boundary(self, truth):
        off_grid = ScenarioSpec("off-grid", overrides=(
            ScenarioOverride("mild_fraction", 0.97, start_day=10),))
        with pytest.raises(ValueError, match="window"):
            parity_calibrator(truth, scenario=off_grid)

    def test_override_cannot_collide_with_param_map(self, truth):
        # Every member's theta draw is its transmission_rate.
        clash = ScenarioSpec("clash", overrides=(
            ScenarioOverride("transmission_rate", 0.25, start_day=16),))
        with pytest.raises(ValueError, match="draws as theta"):
            parity_calibrator(truth, scenario=clash)

    def test_sweep_rejects_conflicting_duplicate_names(self, truth):
        other = ScenarioSpec("mild16", overrides=(
            ScenarioOverride("mild_fraction", 0.95, start_day=16),))
        with pytest.raises(ValueError, match="both named"):
            parity_sweep(truth, [MILD16, other])

    def test_sweep_needs_a_scenario(self, truth):
        with pytest.raises(ValueError, match="at least one"):
            parity_sweep(truth, [])


class TestRunFingerprint:
    def test_baseline_fingerprints_like_no_scenario(self, truth):
        plain = parity_calibrator(truth)
        base = parity_calibrator(truth, scenario=get_scenario("baseline"))
        assert plain.run_fingerprint() == base.run_fingerprint()
        assert "scenario" not in plain.run_fingerprint()

    def test_non_baseline_fingerprint_carries_scenario(self, truth):
        fp = parity_calibrator(truth, scenario=MILD16).run_fingerprint()
        assert fp["scenario"]["name"] == "mild16"

    def test_store_refuses_other_scenario(self, truth, tmp_path):
        from repro.hpc import CheckpointStore
        store = CheckpointStore(tmp_path)
        store.validate_run_meta(
            parity_calibrator(truth, scenario=MILD16).run_fingerprint())
        with pytest.raises(CheckpointError, match="different run"):
            store.validate_run_meta(parity_calibrator(truth).run_fingerprint())


# --------------------------------------------------------------------- #
# parity oracles
# --------------------------------------------------------------------- #
class TestParityOracles:
    #: Posterior digests of the oracle-a calibrations, recorded when
    #: ``calibrate`` and ``calibrate_scenarios`` still ran separate loops.
    ORACLE_A_DIGESTS = {
        "baseline":
            "fc71ac04159a3bdf14e8a966eeacccdfddd3e092d17e82534d0e834e680ddcbe",
        "milder_variant_d34":
            "a8b8564373d3202fad4730bb43f35d4b877957836fdc057bc4dc1d20f7e422a5",
    }

    @pytest.mark.parametrize("name", ["baseline", "milder_variant_d34"])
    def test_oracle_a_n1_sweep_matches_plain_batched(self, tmp_path, name):
        """N=1 sweep == plain calibration, bitwise, stores included.

        ``calibrate(scenario=s)`` against a root store and
        ``calibrate_scenarios([s])`` against its ``<dir>/<s>`` sub-store
        give the same posteriors and byte-equal sealed stores, fresh and
        resumed from stores cut back to two windows.  Both run the same
        window loop, so the posteriors are also pinned to digests recorded
        before they shared it."""
        from repro.inference import (CalibrationConfig, calibrate,
                                     calibrate_scenarios)
        from repro.sim import make_fig2_ground_truth
        obs = make_fig2_ground_truth(seed=777, horizon=76).observations()
        config = CalibrationConfig(
            n_parameter_draws=20, n_replicates=2, resample_size=30,
            n_continuations=2, theta_jitter_width=0.16,
            rho_jitter_width=0.04, base_seed=4242, n_shards=3)
        roots = (tmp_path / "plain", tmp_path / "sweep" / name)

        def run_both(resume):
            plain = calibrate(obs, replace(config, resume=resume,
                                           checkpoint_dir=str(roots[0])),
                              scenario=name)
            sweep = calibrate_scenarios(
                obs, [name], replace(config, resume=resume,
                                     checkpoint_dir=str(tmp_path / "sweep")))
            assert sweep.names == [name]
            return plain, sweep[name]

        plain, swept = run_both(resume=False)
        assert_runs_identical(plain.windows, swept.windows, "oracle a")
        assert _posterior_digest(plain) == _posterior_digest(swept) == \
            self.ORACLE_A_DIGESTS[name]
        sealed = _store_bytes(roots[0])
        assert len(sealed) == 13 and _store_bytes(roots[1]) == sealed

        for root in roots:
            for window in ("window_002", "window_003"):
                shutil.rmtree(root / window)
        for resumed in run_both(resume=True):
            assert resumed.resumed_from == 1
            assert _posterior_digest(resumed) == self.ORACLE_A_DIGESTS[name]
        assert _store_bytes(roots[0]) == _store_bytes(roots[1]) == sealed

    def test_oracle_b_batch_member_matches_standalone(self, truth,
                                                      sweep_and_results):
        """Scenario k inside a batch == scenario k alone, bitwise."""
        _sweep, results = sweep_and_results
        for spec in (None, MILD16, DETECT24):
            name = "baseline" if spec is None else spec.name
            alone = parity_calibrator(truth, scenario=spec).run(
                truth.observations())
            assert_runs_identical(alone, results[name], f"oracle b {name}")

    def test_oracle_b_process_pool_matches_serial(self, truth,
                                                  sweep_and_results):
        """The flattened cross-scenario dispatch is executor-invariant
        under the pinned shard layout."""
        _sweep, serial_results = sweep_and_results
        with ProcessExecutor(max_workers=2) as pool:
            pooled = parity_sweep(truth, ["baseline", MILD16, DETECT24],
                                  executor=pool).run(truth.observations())
        for name in ("baseline", "mild16", "detect24"):
            assert_runs_identical(serial_results[name], pooled[name],
                                  f"process-pool {name}")

    def test_oracle_c_scalar_engine_distributional_parity(self, truth,
                                                          sweep_and_results):
        """The window where mild16's override lands (day 16), restarted
        batched and through the scalar restart oracle, overlaps in its
        window totals and weighted posteriors (the engines share no
        bitstream, so parity is distributional).  The oracle re-asserts
        the scenario pin on every restart from baseline checkpoints."""
        _sweep, results = sweep_and_results
        calib = parity_calibrator(truth, scenario=MILD16)
        obs = truth.observations()
        window1 = list(calib.schedule)[1]
        assert window1.start_day == 16
        pending = calib.propose_window(1, window1,
                                       results["mild16"][0].posterior)
        assert pending.specs[0].params.mild_fraction == 0.97
        assert pending.parents.restart.params.mild_fraction != 0.97
        batched = calib.assemble_window(pending, simulate_groups(
            calib.executor, pending.specs, end_day=window1.end_day,
            engine_options=calib.config.engine_options,
            **calib._shard_layout_kwargs()))
        oracle = window_oracle(pending)

        def ci90_of_totals(ensemble, channel):
            totals = ensemble.segments.channel_matrix(channel).sum(axis=1)
            return np.quantile(totals, [0.05, 0.95])

        for channel in ("cases", "deaths"):
            lo_s, hi_s = ci90_of_totals(oracle, channel)
            lo_b, hi_b = ci90_of_totals(batched, channel)
            assert lo_b <= hi_s and lo_s <= hi_b, (
                f"{channel} totals: oracle [{lo_s:.0f}, {hi_s:.0f}] vs "
                f"batched [{lo_b:.0f}, {hi_b:.0f}] do not overlap")
        ws, wb = (calib.weigh_window(1, window1, ensemble, obs,
                                     sim_days=pending.sim_days)
                  for ensemble in (oracle, batched))
        for name in ("theta", "rho"):
            lo_s, hi_s = ws.posterior.credible_interval(name, 0.9)
            lo_b, hi_b = wb.posterior.credible_interval(name, 0.9)
            assert lo_b <= hi_s and lo_s <= hi_b, (
                f"{name}: scalar [{lo_s:.3f}, {hi_s:.3f}] vs "
                f"batched [{lo_b:.3f}, {hi_b:.3f}] do not overlap")


class TestWorldLineDedup:
    def test_shared_prefix_windows_are_shared_objects(self, sweep_and_results):
        sweep, results = sweep_and_results
        # All three scenarios agree through day 16 -> window 0 is one object.
        assert results["baseline"][0] is results["mild16"][0]
        assert results["baseline"][0] is results["detect24"][0]
        # mild16 diverges at day 16 (window 1); detect24 still matches
        # baseline until day 24.
        assert results["baseline"][1] is not results["mild16"][1]
        assert results["baseline"][1] is results["detect24"][1]
        assert results["baseline"][2] is not results["detect24"][2]

    def test_dedup_counters(self, sweep_and_results):
        sweep, _results = sweep_and_results
        # window 0: 1 line/3 scenarios; window 1: 2 lines (mild16 split);
        # window 2: 3 lines (detect24 split) -> 6 computed, 3 reused.
        assert sweep.computed_windows == 6
        assert sweep.reused_windows == 3

    def test_lines_never_remerge_after_divergence(self, truth):
        """Equal parameters after a transient override do NOT re-merge:
        diverged state stays diverged."""
        transient = ScenarioSpec("transient", overrides=(
            ScenarioOverride("mild_fraction", 0.97, start_day=16),
            ScenarioOverride("mild_fraction", 0.92, start_day=24)))
        base = DiseaseParameters(population=50_000, initial_exposed=100)
        # By day 24 the transient scenario's effective params equal the
        # baseline's again...
        assert transient.params_at(24, base).mild_fraction == \
            base.mild_fraction
        sweep = parity_sweep(truth, ["baseline", transient])
        results = sweep.run(truth.observations())
        # ...yet window 2 is computed separately (lineage diverged at w1).
        assert results["baseline"][2] is not results["transient"][2]
        assert sweep.computed_windows == 5  # w0 shared; w1, w2 split

    def test_request_order_irrelevant(self, truth, sweep_and_results):
        _sweep, results = sweep_and_results
        reordered = parity_sweep(truth, [DETECT24, MILD16, "baseline"])
        other = reordered.run(truth.observations())
        assert reordered.names == ["baseline", "detect24", "mild16"]
        for name in ("baseline", "mild16", "detect24"):
            assert_runs_identical(results[name], other[name],
                                  f"reordered {name}")


class TestSweepResume:
    def test_full_resume_restores_all_scenarios(self, truth, tmp_path,
                                                sweep_and_results):
        from repro.hpc import CheckpointStore
        _sweep, reference = sweep_and_results
        scenarios = ["baseline", MILD16, DETECT24]
        stores = {s if isinstance(s, str) else s.name:
                  CheckpointStore(tmp_path / (s if isinstance(s, str)
                                              else s.name))
                  for s in scenarios}
        first = parity_sweep(truth, scenarios)
        first.run(truth.observations(), stores=stores)

        second = parity_sweep(truth, scenarios)
        resumed = second.run(truth.observations(), stores=stores, resume=True)
        assert second.computed_windows == 0
        assert all(v == 2 for v in second.resumed_from.values())
        for name in ("baseline", "mild16", "detect24"):
            # Restored posteriors drop segment/history payloads by design;
            # compare the statistical state.
            for ref, res in zip(reference[name], resumed[name]):
                assert np.array_equal(ref.posterior.values("theta"),
                                      res.posterior.values("theta"))
                assert [p.seed for p in ref.posterior] == \
                    [p.seed for p in res.posterior]

    def test_resume_requires_stores(self, truth):
        with pytest.raises(ValueError, match="stores"):
            parity_sweep(truth, ["baseline"]).run(truth.observations(),
                                                  resume=True)

    def test_stores_must_cover_all_scenarios(self, truth, tmp_path):
        from repro.hpc import CheckpointStore
        stores = {"baseline": CheckpointStore(tmp_path / "baseline")}
        with pytest.raises(ValueError, match="mild16"):
            parity_sweep(truth, ["baseline", MILD16]).run(
                truth.observations(), stores=stores)
