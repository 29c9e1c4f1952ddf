"""The window path builds no per-particle objects.

A calibration keeps its particles as columns from shard to disk: the
ensemble, the parent gather of a continuation, the checkpoint store and the
forecast all pass :class:`~repro.seir.checkpoint.StackedLeapState` rows
around whole.  This guard makes every per-particle constructor raise —
the :class:`~repro.core.particle.Particle` row view and the scalar
:class:`~repro.testing.BinomialLeapEngine` — and then runs a
checkpointed serial calibration, resumes it, and forecasts from its final
posterior.

Proposals and forecasts are columnar too: parameters travel as columns
(one :class:`~repro.seir.parameters.DiseaseParameters` per structural
group) and seeds are mixed as vectors.  A second guard counts
``DiseaseParameters`` validations and ``SeedSequence`` constructions in
each phase and checks they do not grow with the ensemble.
"""

import dataclasses
import shutil

import numpy as np
import pytest

from repro.core import Particle
from repro.inference import CalibrationConfig, calibrate, forecast_from_posterior
from repro.seir import DiseaseParameters
from repro.sim import make_fig2_ground_truth
from repro.testing import BinomialLeapEngine


def _forbidden(name):
    def build(*args, **kwargs):
        raise AssertionError(f"{name} built on the window path")
    return build


@pytest.fixture
def no_per_particle_objects(monkeypatch):
    monkeypatch.setattr(Particle, "__init__", _forbidden("Particle"))
    monkeypatch.setattr(BinomialLeapEngine, "__init__",
                        _forbidden("BinomialLeapEngine"))


@pytest.fixture(scope="module")
def fig2_observations():
    return make_fig2_ground_truth(seed=777, horizon=34).observations()


@pytest.fixture
def construction_counts(monkeypatch):
    """Live counts of DiseaseParameters validations and SeedSequences."""
    counts = {"DiseaseParameters": 0, "SeedSequence": 0}
    post_init = DiseaseParameters.__post_init__
    seed_sequence = np.random.SeedSequence

    def counting_post_init(self):
        counts["DiseaseParameters"] += 1
        post_init(self)

    def counting_seed_sequence(*args, **kwargs):
        counts["SeedSequence"] += 1
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(DiseaseParameters, "__post_init__",
                        counting_post_init)
    monkeypatch.setattr(np.random, "SeedSequence", counting_seed_sequence)
    return counts


def _phase_counts(observations, counts, root, scale):
    """Constructions per phase (calibrate, resume, forecast) of a
    checkpointed serial run whose draws and posterior scale with ``scale``."""
    config = CalibrationConfig(window_breaks=(20, 27, 34),
                               n_parameter_draws=8 * scale, n_replicates=2,
                               resample_size=10 * scale, executor="serial",
                               checkpoint_dir=str(root))
    phases = {}

    def measure(name, run):
        before = dict(counts)
        out = run()
        phases[name] = {key: counts[key] - before[key] for key in counts}
        return out

    measure("calibrate", lambda: calibrate(observations, config))
    shutil.rmtree(root / "window_001")
    resumed = measure("resume", lambda: calibrate(
        observations, dataclasses.replace(config, resume=True)))
    measure("forecast", lambda: forecast_from_posterior(
        resumed.final_posterior, horizon_days=5, base_seed=3,
        n_per_particle=2))
    return phases


def test_constructions_do_not_grow_with_the_ensemble(
        tmp_path, fig2_observations, construction_counts):
    small = _phase_counts(fig2_observations, construction_counts,
                          tmp_path / "small", scale=1)
    large = _phase_counts(fig2_observations, construction_counts,
                          tmp_path / "large", scale=2)
    assert large == small
    assert all(n > 0 for n in small["calibrate"].values())


def test_row_views_gather_no_trajectories(fig2_observations, monkeypatch):
    """``posterior[i]`` and ``iter(posterior)`` read the scalar columns
    alone: with the lineage gather forbidden, a calibrated posterior still
    yields every row's parameters, seed and ancestor."""
    from repro.core.particle import _Lineage

    config = CalibrationConfig(window_breaks=(20, 27, 34),
                               n_parameter_draws=8, n_replicates=2,
                               resample_size=10, executor="serial")
    posterior = calibrate(fig2_observations, config).final_posterior
    theta = posterior.values("theta")
    monkeypatch.setattr(_Lineage, "rows", _forbidden("_Lineage.rows"))
    assert [p.ancestor for p in posterior] == posterior.ancestors().tolist()
    assert posterior[3].params["theta"] == theta[3]
    assert posterior[-1].seed == posterior.seeds()[-1]
    with pytest.raises(AssertionError, match="_Lineage.rows"):
        posterior.histories


def test_calibrate_resume_forecast_without_per_particle_objects(
        tmp_path, fig2_observations, no_per_particle_objects):
    observations = fig2_observations
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
