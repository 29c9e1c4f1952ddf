"""Unit tests for checkpoint save/load/restart (paper section III-B)."""

import numpy as np
import pytest

from repro.seir import (Checkpoint, CheckpointError, ParameterOverride,
                        StochasticSEIRModel)


def checkpointed_model(params, seed=31, day=15):
    model = StochasticSEIRModel(params, seed)
    model.run_until(day)
    return model, model.checkpoint()


class TestCheckpointObject:
    def test_metadata(self, small_params):
        _, cp = checkpointed_model(small_params)
        assert cp.day == 15
        assert cp.seed == 31
        assert cp.engine_name == "binomial_leap"

    def test_round_trip_dict(self, small_params):
        _, cp = checkpointed_model(small_params)
        restored = Checkpoint.from_dict(cp.to_dict())
        assert restored.day == cp.day
        assert restored.params == cp.params
        assert restored.snapshot == cp.snapshot

    def test_save_and_load_file(self, small_params, tmp_path):
        _, cp = checkpointed_model(small_params)
        path = tmp_path / "state.ckpt.json"
        cp.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.day == cp.day
        assert loaded.params == cp.params

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            Checkpoint.load(path)

    def test_wrong_format_version_rejected(self, small_params):
        _, cp = checkpointed_model(small_params)
        payload = cp.to_dict()
        payload["format_version"] = 999
        with pytest.raises(CheckpointError, match="format"):
            Checkpoint.from_dict(payload)

    def test_missing_engine_field_rejected(self, small_params):
        _, cp = checkpointed_model(small_params)
        payload = cp.to_dict()
        del payload["snapshot"]["engine"]
        with pytest.raises(CheckpointError, match="engine"):
            Checkpoint.from_dict(payload)

    @pytest.mark.parametrize("engine", ["gillespie", "event_driven", "quantum"])
    def test_restart_refuses_other_engines(self, small_params, engine):
        """Only binomial-leap snapshots restart; any other engine tag is a
        loud CheckpointError naming it, never a mis-restart."""
        _, cp = checkpointed_model(small_params)
        bad = Checkpoint(params=cp.params,
                         snapshot={**cp.snapshot, "engine": engine})
        with pytest.raises(CheckpointError, match=repr(engine)):
            bad.restart()
        with pytest.raises(CheckpointError, match=repr(engine)):
            StochasticSEIRModel.from_checkpoint(
                bad, ParameterOverride(seed=3))


class TestRestartSemantics:
    def test_plain_restart_is_bit_exact(self, small_params):
        model, cp = checkpointed_model(small_params)
        continued = model.run_until(40)
        replay = StochasticSEIRModel.from_checkpoint(cp).run_until(40)
        assert np.array_equal(continued.infections, replay.infections)

    def test_restart_with_new_theta_changes_dynamics(self, small_params):
        _, cp = checkpointed_model(small_params)
        base = StochasticSEIRModel.from_checkpoint(
            cp, ParameterOverride(seed=7)).run_until(50)
        hot = StochasticSEIRModel.from_checkpoint(
            cp, ParameterOverride(seed=7, transmission_rate=0.9)).run_until(50)
        assert hot.total_infections() > base.total_infections()

    def test_restart_with_new_seed_diverges(self, small_params):
        _, cp = checkpointed_model(small_params)
        a = StochasticSEIRModel.from_checkpoint(
            cp, ParameterOverride(seed=1)).run_until(45)
        b = StochasticSEIRModel.from_checkpoint(
            cp, ParameterOverride(seed=2)).run_until(45)
        assert not np.array_equal(a.infections, b.infections)

    def test_restart_preserves_compartment_counts(self, small_params):
        model, cp = checkpointed_model(small_params)
        restored = StochasticSEIRModel.from_checkpoint(cp)
        assert restored.day == model.day
        assert restored.cumulative_infections == model.cumulative_infections

    def test_theta_override_supersedes_schedule(self, small_params):
        from repro.data import PiecewiseConstant
        sched = PiecewiseConstant.constant(0.9)
        model = StochasticSEIRModel(small_params, 3, theta_schedule=sched)
        model.run_until(10)
        cp = model.checkpoint()
        frozen = StochasticSEIRModel.from_checkpoint(
            cp, ParameterOverride(seed=5, transmission_rate=0.0))
        traj = frozen.run_until(30)
        assert traj.total_infections() == 0

    def test_restart_without_override_keeps_schedule(self, small_params):
        from repro.data import PiecewiseConstant
        sched = PiecewiseConstant.constant(0.0)
        model = StochasticSEIRModel(
            small_params.with_updates(transmission_rate=0.9), 3,
            theta_schedule=sched)
        model.run_until(10)
        restored = StochasticSEIRModel.from_checkpoint(model.checkpoint())
        traj = restored.run_until(30)
        assert traj.total_infections() == 0  # schedule (0.0) still rules

    @pytest.mark.parametrize("engine", ["binomial_leap"])
    def test_restart_engines(self, tiny_params, engine):
        model, cp = checkpointed_model(tiny_params, day=8)
        assert cp.engine_name == engine
        continued = model.run_until(16)
        replay = StochasticSEIRModel.from_checkpoint(cp).run_until(16)
        assert np.array_equal(continued.infections, replay.infections)

    def test_checkpoint_chain_across_windows(self, small_params):
        """Repeated checkpoint/restart must agree with an unbroken run."""
        whole = StochasticSEIRModel(small_params, 13).run_until(36)
        model = StochasticSEIRModel(small_params, 13)
        segments = []
        for end in (12, 24, 36):
            segments.append(model.run_until(end))
            model = StochasticSEIRModel.from_checkpoint(model.checkpoint())
        merged = segments[0].extended_by(segments[1]).extended_by(segments[2])
        assert np.array_equal(whole.infections, merged.infections)
