"""Unit tests for the observation model (bias + likelihood glue)."""

import numpy as np
import pytest

from repro.core import (BinomialBiasModel, ObservationModel, Particle,
                        ParticleEnsemble, SourceModel, paper_likelihood,
                        paper_observation_model)
from repro.data import CASES, DEATHS, ObservationSet, ObservationSource, TimeSeries
from repro.seir import Trajectory


def trajectory(n=10, infections=100.0, deaths=2.0, start=0):
    return Trajectory(start,
                      np.full(n, infections),
                      np.full(n, deaths),
                      np.zeros(n), np.zeros(n))


def observations(n=10, cases=60.0, deaths=2.0, start=0, include_deaths=True):
    sources = [ObservationSource(CASES, TimeSeries(start, np.full(n, cases)),
                                 channel=CASES, biased=True)]
    if include_deaths:
        sources.append(ObservationSource(
            DEATHS, TimeSeries(start, np.full(n, deaths)),
            channel=DEATHS, biased=False))
    return ObservationSet.of(*sources)


def loglik(om, obs, members, rng):
    """``loglik_ensemble`` over an ensemble of ``(trajectory, rho)``."""
    ensemble = ParticleEnsemble([
        Particle(params={"theta": 0.3, "rho": rho}, seed=i, segment=traj)
        for i, (traj, rho) in enumerate(members)])
    return om.loglik_ensemble(obs, ensemble, ensemble.values("rho"), rng)


class TestSourceModel:
    def test_biased_source_thins(self, rng):
        sm = SourceModel(CASES, CASES, biased=True,
                         bias=BinomialBiasModel("mean"))
        out = sm.simulated_observed_batch(np.full((3, 10), 100.0),
                                          np.full(3, 0.5), rng)
        assert np.allclose(out, 50.0)

    def test_unbiased_source_passthrough(self, rng):
        sm = SourceModel(DEATHS, DEATHS, biased=False)
        out = sm.simulated_observed_batch(np.full((3, 10), 2.0),
                                          np.full(3, 0.5), rng)
        assert np.allclose(out, 2.0)

    def test_loglik_windowing(self, rng):
        sm = SourceModel(CASES, CASES, biased=True,
                         bias=BinomialBiasModel("mean"))
        obs = ObservationSet.of(ObservationSource(
            CASES, TimeSeries(3, np.full(4, 50.0)), channel=CASES,
            biased=True))
        ll = loglik(ObservationModel({CASES: sm}), obs,
                    [(trajectory(n=10), 0.5)], rng)
        # exact match after mean-thinning days 3-6: residuals zero
        assert ll == pytest.approx(paper_likelihood().loglik_batch(
            np.full(4, 50.0), np.full((1, 4), 50.0)))

    def test_higher_rho_fits_higher_observed(self, rng):
        sm = SourceModel(CASES, CASES, biased=True,
                         bias=BinomialBiasModel("mean"))
        obs = TimeSeries(0, np.full(10, 90.0))
        ll_right, ll_wrong = sm.loglik_batch(
            obs, np.full((2, 10), 100.0), np.array([0.9, 0.3]), rng)
        assert ll_right > ll_wrong


class TestObservationModel:
    def test_paper_model_composition(self):
        om = paper_observation_model()
        assert set(om.names) == {CASES, DEATHS}
        assert om.source(CASES).biased
        assert not om.source(DEATHS).biased

    def test_loglik_sums_sources(self, rng):
        om = paper_observation_model(bias_mode="mean")
        member = [(trajectory(), 0.6)]
        both = loglik(om, observations(), member, rng)
        cases_only = loglik(om, observations(include_deaths=False), member,
                            rng)
        assert both != cases_only  # deaths stream contributes

    def test_unconfigured_stream_rejected(self, rng):
        om = ObservationModel({CASES: SourceModel(CASES, CASES)})
        with pytest.raises(KeyError, match="no SourceModel"):
            loglik(om, observations(), [(trajectory(), 0.5)], rng)

    def test_key_name_mismatch_rejected(self):
        with pytest.raises(ValueError, match="!="):
            ObservationModel({"x": SourceModel(CASES, CASES)})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ObservationModel({})

    def test_deaths_anchor_identifiability(self, rng):
        """With deaths observed, a too-large epidemic is penalised even if
        rho can explain the case counts — the Fig 5 mechanism."""
        om = paper_observation_model(bias_mode="mean")
        obs = observations(cases=60.0, deaths=2.0)
        right, too_big = loglik(om, obs, [
            (trajectory(infections=100.0, deaths=2.0), 0.6),
            (trajectory(infections=200.0, deaths=4.0), 0.3)], rng)
        assert right > too_big
