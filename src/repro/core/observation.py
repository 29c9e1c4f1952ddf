"""Observation model: bias + likelihood per data source.

This is the glue between a window's simulated ensemble and the observed
data streams.  Each :class:`SourceModel` declares which simulator channel
it reads, whether the binomial reporting bias applies (the paper biases
cases but not deaths), and the noise scale of its Gaussian-on-sqrt-counts
likelihood.  :meth:`ObservationModel.loglik_ensemble` sums the per-source
log-likelihoods for the sources actually present in an observation window
— calibrating to cases alone (Fig 3/4) or to cases and deaths (Fig 5) is
purely a matter of which streams the
:class:`~repro.data.sources.ObservationSet` carries.  It is the only
weighting code a calibration runs; :mod:`repro.testing.weighting` holds the
per-particle reference it is checked against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

import numpy as np

from ..data.series import TimeSeries
from ..data.sources import CASES, DEATHS, ObservationSet
from .bias import BinomialBiasModel
from .likelihood import GaussianTransformLikelihood, paper_likelihood

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from .particle import ParticleEnsemble

__all__ = ["SourceModel", "ObservationModel", "paper_observation_model"]


class SourceModel:
    """Bias + likelihood configuration for one observed stream."""

    def __init__(self, name: str, channel: str, *,
                 biased: bool = True,
                 likelihood: GaussianTransformLikelihood | None = None,
                 bias: BinomialBiasModel | None = None) -> None:
        self.name = name
        self.channel = channel
        self.biased = bool(biased)
        self.likelihood = likelihood if likelihood is not None else paper_likelihood()
        self.bias = bias if bias is not None else BinomialBiasModel("sample")

    def simulated_observed_batch(self, segments: np.ndarray, rho: np.ndarray,
                                 rng: np.random.Generator | None) -> np.ndarray:
        """The ensemble's simulated *observed* counts for this stream.

        ``segments`` is the ``(n_particles, n_days)`` raw channel matrix and
        ``rho`` the per-particle reporting probabilities.  A biased stream
        is thinned with each particle's rho; an unbiased one (the paper's
        death stream) passes through untouched and consumes no randomness.
        """
        matrix = np.asarray(segments, dtype=np.float64)
        if not self.biased:
            return matrix
        return self.bias.apply_batch(matrix, rho, rng)

    def loglik_batch(self, observed: TimeSeries, segments: np.ndarray,
                     rho: np.ndarray,
                     rng: np.random.Generator | None) -> np.ndarray:
        """Per-particle log-likelihoods of one observed window.

        ``segments`` must already be windowed to the observed day range
        (``ParticleEnsemble.segment_matrix`` does this in one pass).
        """
        simulated = self.simulated_observed_batch(segments, rho, rng)
        if simulated.ndim != 2 or simulated.shape[1] != len(observed):
            raise ValueError(
                f"segments not aligned with observed window: got shape "
                f"{simulated.shape}, expected (n_particles, {len(observed)})")
        return self.likelihood.loglik_batch(observed.values, simulated)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SourceModel({self.name!r}, channel={self.channel!r}, "
                f"biased={self.biased}, likelihood={self.likelihood!r})")


class ObservationModel:
    """Name-keyed bundle of :class:`SourceModel` objects."""

    def __init__(self, sources: Mapping[str, SourceModel]) -> None:
        if not sources:
            raise ValueError("need at least one source model")
        for key, model in sources.items():
            if key != model.name:
                raise ValueError(f"source key {key!r} != model name {model.name!r}")
        self._sources = dict(sources)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._sources)

    def source(self, name: str) -> SourceModel:
        return self._sources[name]

    def _require_source(self, name: str) -> SourceModel:
        """The model for an observed stream; silently ignoring data would
        corrupt the posterior, so an unconfigured stream is an error."""
        if name not in self._sources:
            raise KeyError(
                f"no SourceModel configured for observed stream "
                f"{name!r}; configured: {sorted(self._sources)}")
        return self._sources[name]

    def loglik_ensemble(self, observations: ObservationSet,
                        ensemble: "ParticleEnsemble", rho: np.ndarray,
                        rng: np.random.Generator | None) -> np.ndarray:
        """Log-likelihood of every particle over the streams present.

        Returns the ``(n_particles,)`` vector of summed per-source
        log-likelihoods.  Sources are evaluated in observation-set order and
        each biased source thins the whole ensemble with one batched binomial
        call (source-major draw order; see :mod:`repro.core.bias`).  A
        stream in ``observations`` without a configured source model is an
        error (silently ignoring data would corrupt the posterior); sources
        configured but absent from the data are simply unused.
        """
        rho_arr = np.asarray(rho, dtype=np.float64)
        if rho_arr.shape != (len(ensemble),):
            raise ValueError(
                f"rho must have one entry per particle: expected shape "
                f"({len(ensemble)},), got {rho_arr.shape}")
        total = np.zeros(len(ensemble), dtype=np.float64)
        for obs_source in observations:
            model = self._require_source(obs_source.name)
            segments = ensemble.segment_matrix(model.channel,
                                               obs_source.series.start_day,
                                               obs_source.series.end_day)
            total += model.loglik_batch(obs_source.series, segments, rho_arr,
                                        rng)
        return total

    def fingerprint_payload(self) -> dict[str, dict[str, object]]:
        """JSON-stable identity of everything here that moves the weights:
        per source its channel and sigma, plus the bias mode when biased."""
        payload: dict[str, dict[str, object]] = {}
        for name, model in self._sources.items():
            entry: dict[str, object] = {"channel": model.channel,
                                        "sigma": model.likelihood.sigma}
            if model.biased:
                entry["bias"] = model.bias.mode
            payload[name] = entry
        return payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ObservationModel(sources={sorted(self._sources)})"


def paper_observation_model(sigma: float = 1.0,
                            bias_mode: str = "sample") -> ObservationModel:
    """Cases (binomially biased) + deaths (unbiased), Gaussian sqrt likelihoods.

    Matches section V: "We do not assume any reporting bias on death counts,
    instead we use a Gaussian error model on the square-root counts similar
    to reported case counts."
    """
    bias = BinomialBiasModel(bias_mode)
    return ObservationModel({
        CASES: SourceModel(CASES, CASES, biased=True,
                           likelihood=paper_likelihood(sigma), bias=bias),
        DEATHS: SourceModel(DEATHS, DEATHS, biased=False,
                            likelihood=paper_likelihood(sigma)),
    })
