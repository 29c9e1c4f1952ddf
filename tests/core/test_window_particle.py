"""Unit tests for time windows and particle ensembles."""

import numpy as np
import pytest

from repro.core import (ParticleEnsemble, TimeWindow, WindowSchedule,
                        effective_sample_size)
from repro.seir import BatchTrajectory


class TestTimeWindow:
    def test_basics(self):
        w = TimeWindow(20, 34)
        assert w.n_days == 14

    def test_label_matches_paper_style(self):
        assert TimeWindow(20, 34).label() == "Days 20-33"

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            TimeWindow(5, 5)


class TestWindowSchedule:
    def test_from_breaks(self):
        s = WindowSchedule.from_breaks([20, 34, 48])
        assert len(s) == 2
        assert s[0] == TimeWindow(20, 34)
        assert s.start_day == 20
        assert s.end_day == 48

    def test_contiguity_enforced(self):
        with pytest.raises(ValueError, match="contiguous"):
            WindowSchedule(windows=(TimeWindow(0, 10), TimeWindow(11, 20)))

    def test_burn_in_after_first_window_rejected(self):
        with pytest.raises(ValueError, match="burn-in"):
            WindowSchedule.from_breaks([20, 34], burn_in_start=25)

def ensemble(*rows, n_days=5, start=0):
    """An ensemble of ``(theta, log_weight)`` rows with rho 0.8, seeds
    ``1..n`` and a constant segment and history per row."""
    n = len(rows)
    theta, lw = (np.array(c, dtype=float) for c in zip(*rows))
    traj = BatchTrajectory(start, np.ones((n, n_days)),
                           *(np.zeros((n, n_days)) for _ in range(3)))
    return ParticleEnsemble.from_columns(
        {"theta": theta, "rho": np.full(n, 0.8)}, np.arange(1, n + 1),
        log_weights=lw, segments=traj, histories=traj)


class TestParticle:
    def test_value_accessor(self):
        p = ensemble((0.25, 0.0))[0]
        assert p.params["theta"] == 0.25
        with pytest.raises(KeyError):
            p.params["zeta"]


class TestParticleEnsemble:
    def test_values_and_names(self):
        ens = ensemble((0.1, 0.0), (0.2, 0.0))
        assert np.allclose(ens.values("theta"), [0.1, 0.2])
        assert ens.param_names == ("rho", "theta")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ParticleEnsemble.from_columns({"theta": np.zeros(0)},
                                          np.zeros(0, dtype=int))

    def test_uniform_weights_by_default(self):
        ens = ParticleEnsemble.from_columns({"theta": np.full(2, 0.3)},
                                            np.array([1, 2]))
        assert np.allclose(ens.normalized_weights(), 0.5)
        assert effective_sample_size(ens.normalized_weights()) == \
            pytest.approx(2.0)
        assert list(ens.ancestors()) == [-1, -1]

    def test_weighted_mean_respects_weights(self):
        ens = ensemble((0.0, 0.0), (1.0, -1e9))
        assert ens.weighted_mean("theta") == pytest.approx(0.0)

    def test_credible_interval_ordering(self):
        rng = np.random.Generator(np.random.PCG64(3))
        ens = ensemble(*((float(t), 0.0) for t in rng.normal(0.3, 0.05, 200)))
        lo50, hi50 = ens.credible_interval("theta", 0.5)
        lo90, hi90 = ens.credible_interval("theta", 0.9)
        assert lo90 <= lo50 <= hi50 <= hi90

    def test_credible_interval_level_validated(self):
        ens = ensemble((0.3, 0.0))
        with pytest.raises(ValueError):
            ens.credible_interval("theta", 1.5)

    def test_select_resets_weights_and_tracks_ancestors(self):
        ens = ensemble((0.1, -5.0), (0.2, -1.0))
        out = ens.select([1, 1, 0])
        assert len(out) == 3
        assert np.allclose(out.log_weights(), 0.0)
        assert out[0].params["theta"] == 0.2
        assert out[0].ancestor == 1
        assert out.unique_ancestors() == 2
        assert out.segments.n_particles == out.histories.n_particles == 3
        # -1 is the window-0 "no parent" ancestor, never the last row.
        for bad in ([-1], [0, 2]):
            with pytest.raises(ValueError, match="indices must lie"):
                ens.select(bad)

    def test_trajectories_accessor(self):
        ens = ensemble((0.3, 0.0), (0.3, 0.0))
        assert ens.trajectory_batch("segment").n_particles == 2
        assert ens.trajectory_batch("history").n_particles == 2
        with pytest.raises(ValueError):
            ens.trajectory_batch("future")

    def test_missing_trajectory_raises(self):
        ens = ParticleEnsemble.from_columns({"theta": np.array([1.0])},
                                            np.array([1]))
        with pytest.raises(ValueError, match="missing"):
            ens.trajectory_batch("segment")

    def test_from_columns(self):
        ens = ParticleEnsemble.from_columns(
            {"theta": np.array([0.1, 0.2]), "rho": np.array([0.5, 0.6])},
            seeds=np.array([7, 8]))
        assert len(ens) == 2
        assert ens[1].seed == 8
        assert ens[1].params["rho"] == 0.6

    def test_from_columns_shape_mismatch(self):
        with pytest.raises(ValueError):
            ParticleEnsemble.from_columns(
                {"theta": np.array([0.1, 0.2])}, seeds=np.array([1]))
