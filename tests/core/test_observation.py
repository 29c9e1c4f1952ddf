"""Unit tests for the observation model: binomial thinning (eq. 2), the
Gaussian on square-root counts (eq. 3) and their sum over streams (eq. 4)."""

import dataclasses

import numpy as np
import pytest

from repro.core import ObservationModel, ParticleEnsemble
from repro.core.observation import _sqrt_gaussian_loglik, _thin
from repro.data import (CASES, DEATHS, STREAMS, ObservationSet,
                        ObservationSource, TimeSeries)
from repro.seir import BatchTrajectory
from repro.service import ObservationBuffer


def trajectory(n=10, infections=100.0, deaths=2.0, start=0):
    return BatchTrajectory(start,
                           np.full((1, n), infections),
                           np.full((1, n), deaths),
                           np.zeros((1, n)), np.zeros((1, n)))


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
    trajs, rhos = zip(*members)
    ensemble = ParticleEnsemble.from_columns(
        {"theta": np.full(len(rhos), 0.3), "rho": np.array(rhos)},
        np.arange(len(rhos)), segments=BatchTrajectory.concatenate(trajs))
    return om.loglik_ensemble(obs, ensemble, ensemble.values("rho"), rng)


def exact_fit(n_days, sigma=1.0):
    """The log-likelihood of a window with zero residuals."""
    return -0.5 * n_days * np.log(2.0 * np.pi * sigma**2)


class TestSourceModel:
    """How each observed stream is modelled: cases thinned, deaths not."""

    def test_biased_source_thins(self, rng):
        obs = observations(cases=50.0, include_deaths=False)
        ll = loglik(ObservationModel(bias_mode="mean"), obs,
                    [(trajectory(infections=100.0), 0.5)], rng)
        assert ll == pytest.approx([exact_fit(10)])

    def test_unbiased_source_passthrough(self, rng):
        obs = ObservationSet.of(ObservationSource(
            DEATHS, TimeSeries(0, np.full(10, 2.0)), channel=DEATHS,
            biased=False))
        # No rng: an unthinned stream consumes no randomness.
        ll = loglik(ObservationModel(), obs,
                    [(trajectory(deaths=2.0), 0.5)], None)
        assert ll == pytest.approx([exact_fit(10)])

    def test_loglik_windowing(self, rng):
        obs = ObservationSet.of(ObservationSource(
            CASES, TimeSeries(3, np.full(4, 50.0)), channel=CASES,
            biased=True))
        ll = loglik(ObservationModel(bias_mode="mean"), obs,
                    [(trajectory(n=10), 0.5)], rng)
        # exact match after mean-thinning days 3-6: residuals zero
        assert ll == pytest.approx(_sqrt_gaussian_loglik(
            np.full(4, 50.0), np.full((1, 4), 50.0), 1.0))

    def test_higher_rho_fits_higher_observed(self, rng):
        obs = observations(cases=90.0, include_deaths=False)
        ll_right, ll_wrong = loglik(ObservationModel(bias_mode="mean"), obs,
                                    [(trajectory(), 0.9), (trajectory(), 0.3)],
                                    rng)
        assert ll_right > ll_wrong


class TestObservationModel:
    def test_paper_model_composition(self):
        """Two fields; cases are thinned, deaths are not."""
        assert [f.name for f in dataclasses.fields(ObservationModel)] == \
            ["sigma", "bias_mode"]
        assert STREAMS == {CASES: (CASES, True), DEATHS: (DEATHS, False)}
        assert ObservationModel().fingerprint_payload() == {
            CASES: {"channel": CASES, "sigma": 1.0, "bias": "sample"},
            DEATHS: {"channel": DEATHS, "sigma": 1.0}}

    def test_loglik_sums_sources(self, rng):
        om = ObservationModel(bias_mode="mean")
        member = [(trajectory(), 0.6)]
        both = loglik(om, observations(), member, rng)
        cases_only = loglik(om, observations(include_deaths=False), member,
                            rng)
        assert both != cases_only  # deaths stream contributes

    def test_unconfigured_stream_rejected(self, rng):
        icu = ObservationSource("icu", TimeSeries(0, np.zeros(10)),
                                channel="icu_census", biased=False)
        obs = ObservationSet(observations().sources + (icu,))
        with pytest.raises(KeyError, match="no observation model for "
                                           "observed stream 'icu'"):
            loglik(ObservationModel(), obs, [(trajectory(), 0.5)], rng)

    @pytest.mark.parametrize("name, channel, biased", [
        (CASES, CASES, False),
        (CASES, DEATHS, True),
        (DEATHS, DEATHS, True),
        (DEATHS, CASES, False),
    ])
    def test_disagreeing_declaration_rejected(self, rng, name, channel,
                                              biased):
        """A stream declaring another channel or thinning than the model
        weighs it with is refused, not silently weighed as modelled."""
        obs = ObservationSet.of(ObservationSource(
            name, TimeSeries(0, np.full(10, 2.0)), channel=channel,
            biased=biased))
        with pytest.raises(ValueError, match=(
                rf"stream '{name}' declares \(channel, biased\) = "
                rf"\('{channel}', {biased}\).*weighs it as "
                rf"\('{STREAMS[name][0]}', {STREAMS[name][1]}\)")):
            loglik(ObservationModel(bias_mode="mean"), obs,
                   [(trajectory(), 0.5)], rng)

    def test_disagreeing_buffer_wiring_rejected(self, rng):
        buffer = ObservationBuffer(streams={CASES: (DEATHS, False)})
        buffer.add_rows(CASES, [(day, 60) for day in range(10)])
        with pytest.raises(ValueError, match="stream 'cases' declares"):
            loglik(ObservationModel(bias_mode="mean"),
                   buffer.observation_set(0, 10), [(trajectory(), 0.5)], rng)

    def test_deaths_anchor_identifiability(self, rng):
        """With deaths observed, a too-large epidemic is penalised even if
        rho can explain the case counts — the Fig 5 mechanism."""
        om = ObservationModel(bias_mode="mean")
        obs = observations(cases=60.0, deaths=2.0)
        right, too_big = loglik(om, obs, [
            (trajectory(infections=100.0, deaths=2.0), 0.6),
            (trajectory(infections=200.0, deaths=4.0), 0.3)], rng)
        assert right > too_big


class TestGaussianTransform:
    """The Gaussian on square-root counts (eq. 3)."""

    def test_perfect_match_maximises(self):
        y = np.array([100.0, 200.0, 300.0])
        exact, off = _sqrt_gaussian_loglik(y, np.vstack([y, y * 1.2]), 1.0)
        assert exact > off

    def test_matches_formula(self):
        y = np.array([1.0, 4.0])
        eta = np.array([[0.0, 0.0]])
        # sqrt residuals 1 and 2
        expected = (-0.5 * 2 * np.log(2 * np.pi * 4.0)
                    - 0.5 * (1.0 + 4.0) / 4.0)
        assert _sqrt_gaussian_loglik(y, eta, 2.0) == pytest.approx([expected])

    def test_sqrt_transform_equalises_relative_error(self):
        """On sqrt scale, equal-multiple errors at different magnitudes
        should penalise the larger count more in absolute sqrt units."""
        small = _sqrt_gaussian_loglik(np.array([10.0]), np.array([[12.0]]),
                                      1.0)
        large = _sqrt_gaussian_loglik(np.array([1000.0]),
                                      np.array([[1200.0]]), 1.0)
        assert small > large

    def test_sigma_validation(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="sigma"):
                ObservationModel(sigma=bad)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="day-axis"):
            _sqrt_gaussian_loglik(np.zeros(3), np.zeros((1, 4)), 1.0)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            _sqrt_gaussian_loglik(np.array([]), np.zeros((1, 0)), 1.0)


class TestTransforms:
    """The likelihood's square-root step."""

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            _sqrt_gaussian_loglik(np.array([-1.0, 4.0]),
                                  np.array([[1.0, 4.0]]), 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            _sqrt_gaussian_loglik(np.array([1.0, 4.0]),
                                  np.array([[1.0, -4.0]]), 1.0)

    def test_sqrt_variance_stabilises_poisson(self, rng):
        """Var(sqrt(Poisson(lam))) ~ 1/4 regardless of lam."""
        for lam in (10.0, 100.0, 1000.0):
            x = rng.poisson(lam, size=20_000)
            assert np.sqrt(x).var() == pytest.approx(0.25, rel=0.15)


class TestThinning:
    """The binomial reporting bias (eq. 2)."""

    def test_invalid_mode(self):
        with pytest.raises(ValueError, match="bias_mode must be 'sample' or "
                                             "'mean', got 'approximate'"):
            ObservationModel(bias_mode="approximate")

    def test_mean_mode_deterministic(self):
        out = _thin(np.array([[10.0, 20.0]]), np.array([0.5]), "mean", None)
        assert np.allclose(out, [[5.0, 10.0]])

    def test_sample_mode_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            _thin(np.array([[10.0]]), np.array([0.5]), "sample", None)

    def test_sample_bounded_by_true(self, rng):
        true = np.full((4, 100), 50.0)
        out = _thin(true, np.full(4, 0.7), "sample", rng)
        assert np.all(out <= 50)
        assert np.all(out >= 0)

    def test_sample_mean_matches_rho(self, rng):
        true = np.full((2, 2500), 100.0)
        out = _thin(true, np.full(2, 0.6), "sample", rng)
        assert out.mean() == pytest.approx(60.0, rel=0.02)

    def test_rho_validation(self, rng):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="rho"):
                _thin(np.array([[10.0]]), np.array([bad]), "sample", rng)

    def test_negative_counts_rejected(self, rng):
        with pytest.raises(ValueError, match="non-negative"):
            _thin(np.array([[-5.0]]), np.array([0.5]), "sample", rng)
