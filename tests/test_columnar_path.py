"""The window path builds no per-particle objects.

A calibration keeps its particles as columns from shard to disk: the
ensemble, the parent gather of a continuation, the checkpoint store and the
forecast all pass :class:`~repro.seir.checkpoint.StackedLeapState` rows
around whole.  This guard makes every per-particle constructor raise —
:class:`~repro.core.particle.Particle`, :class:`~repro.seir.checkpoint.Checkpoint`
and the leap-snapshot dict function — and then runs a checkpointed serial
calibration, resumes it, and forecasts from its final posterior.
"""

import dataclasses
import shutil
import sys

import numpy as np
import pytest

from repro.core import Particle
from repro.inference import CalibrationConfig, calibrate, forecast_from_posterior
from repro.seir import Checkpoint
from repro.sim import make_fig2_ground_truth


def _forbidden(name):
    def build(*args, **kwargs):
        raise AssertionError(f"{name} built on the window path")
    return build


@pytest.fixture
def no_per_particle_objects(monkeypatch):
    monkeypatch.setattr(Particle, "__init__", _forbidden("Particle"))
    monkeypatch.setattr(Checkpoint, "__init__", _forbidden("Checkpoint"))
    snapshot = _forbidden("leap_particle_snapshot")
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and \
                hasattr(module, "leap_particle_snapshot"):
            monkeypatch.setattr(module, "leap_particle_snapshot", snapshot)


def test_calibrate_resume_forecast_without_per_particle_objects(
        tmp_path, no_per_particle_objects):
    truth = make_fig2_ground_truth(seed=777, horizon=34)
    observations = truth.observations()
    config = CalibrationConfig(window_breaks=(20, 27, 34),
                               n_parameter_draws=8, n_replicates=2,
                               resample_size=10, executor="serial",
                               checkpoint_dir=str(tmp_path / "ckpt"))
    straight = calibrate(observations, config)
    assert len(straight.windows) == 2

    # Drop the last window so the resume restores window 0 and restarts
    # window 1 from its stored restart columns.
    shutil.rmtree(tmp_path / "ckpt" / "window_001")
    resumed = calibrate(observations,
                        dataclasses.replace(config, resume=True))
    assert resumed.resumed_from == 0
    final = resumed.final_posterior
    assert np.array_equal(final.seeds(), straight.final_posterior.seeds())
    assert np.array_equal(final.values("theta"),
                          straight.final_posterior.values("theta"))

    forecast = forecast_from_posterior(final, horizon_days=5, base_seed=3)
    assert len(forecast) == len(final)
    assert forecast.start_day == 34
