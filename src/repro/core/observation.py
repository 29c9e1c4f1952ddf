"""The observation model (paper section IV-A, eqs. 2-4).

This is the glue between a window's simulated ensemble and the observed
data streams.  The paper defines one observation model with two knobs:

* Cases are a binomial thinning of the simulated counts (eq. 2),
  ``eta_obs_t ~ Binomial(eta_t(theta, s), rho)``; deaths are not thinned
  ("We do not assume any reporting bias on death counts", section V).
* Each stream is scored by an independent Gaussian on square-root counts
  with one noise scale ``sigma`` (eq. 3; ``sigma = 1`` in section V-B).  The
  square root is the variance-stabilising transform for Poisson-like
  counts, so one ``sigma`` is meaningful across orders of magnitude.  The
  streams' log-likelihoods add (eq. 4).

Which simulator channel a stream reads and whether it is thinned is
declared once, in :data:`repro.data.sources.STREAMS`; an observed stream
whose own declaration disagrees with that table is refused.  Calibrating to
cases alone (Fig 3/4) or to cases and deaths (Fig 5) is purely a matter of
which streams the :class:`~repro.data.sources.ObservationSet` carries.

``bias_mode`` picks how thinning is evaluated: ``"sample"`` draws the
binomial (the paper's construction; the weight stays an unbiased
pseudo-marginal estimate), ``"mean"`` uses ``rho * eta_t`` (deterministic,
ignoring the thinning noise).

Draw-order contract (``sample`` mode)
-------------------------------------
Each thinned stream is thinned with **one** ``rng.binomial`` call over its
``(n_particles, n_days)`` count matrix.  NumPy fills broadcast variate
arrays in C order, so the stream is consumed particle-major, day-minor.
Several thinned streams are thinned stream-major in observation-set order,
each over exactly the observed window's days.  A fixed ``base_seed``
therefore makes weighting bit-reproducible.  :meth:`loglik_ensemble` is the
only weighting code a calibration runs; :mod:`repro.testing.weighting`
holds the per-particle reference it is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..data.sources import STREAMS, ObservationSet, ObservationSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from .particle import ParticleEnsemble

__all__ = ["ObservationModel"]


def _thin(counts: np.ndarray, rho: np.ndarray, mode: str,
          rng: np.random.Generator | None) -> np.ndarray:
    """Simulated observed counts: each row of ``counts`` thinned with its
    particle's ``rho`` (one binomial call in ``sample`` mode).  Integer
    counts (a trajectory's int32 channels) are drawn on as they are; float
    counts are rounded first.

    ``rho = 0`` is refused: a zero reporting rate makes every observation
    identically zero and the likelihood degenerate.
    """
    if counts.ndim != 2:
        raise ValueError(
            f"true_counts must be (n_particles, n_days), got shape {counts.shape}")
    if rho.shape != (counts.shape[0],):
        raise ValueError(
            f"rho must have one entry per particle: expected shape "
            f"({counts.shape[0]},), got {rho.shape}")
    if np.any((rho <= 0.0) | (rho > 1.0)):
        raise ValueError("every rho must be in (0, 1]")
    if np.any(counts < 0):
        raise ValueError("true counts must be non-negative")
    if mode == "mean":
        return rho[:, None] * counts
    if rng is None:
        raise ValueError("sample mode requires an rng")
    n = (counts.astype(np.int64) if counts.dtype.kind in "iu"
         else np.rint(counts).astype(np.int64))
    return rng.binomial(n, rho[:, None]).astype(np.float64)


def _sqrt_gaussian_loglik(observed: np.ndarray, simulated: np.ndarray,
                          sigma: float) -> np.ndarray:
    """Eq. 3 for every row: ``-n/2 log(2 pi sigma^2) - 1/(2 sigma^2)
    sum_t (sqrt(y_t) - sqrt(eta_t))^2``.

    ``observed`` is the ``(n_days,)`` window and ``simulated`` the
    ``(n_particles, n_days)`` simulated observed counts.  The square root of
    a negative count has no meaning, so such a count is refused.
    """
    y = np.asarray(observed, dtype=np.float64)
    eta = np.asarray(simulated, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError(f"observed must be 1-d, got shape {y.shape}")
    if eta.ndim != 2:
        raise ValueError(
            f"simulated must be (n_particles, n_days), got shape {eta.shape}")
    if eta.shape[1] != y.size:
        raise ValueError(
            f"day-axis mismatch: observed {y.size} days vs simulated {eta.shape[1]}")
    if y.size == 0:
        raise ValueError("empty observation window")
    if np.any(y < 0) or np.any(eta < 0):
        raise ValueError("sqrt transform requires non-negative counts")
    resid = np.sqrt(y)[None, :] - np.sqrt(eta)
    n = y.size
    return (-0.5 * n * np.log(2.0 * np.pi * sigma**2)
            - 0.5 * np.einsum("ij,ij->i", resid, resid) / sigma**2)


def _wiring(source: ObservationSource) -> tuple[str, bool]:
    """The modelled ``(channel, biased)`` of an observed stream.

    Weighing a stream the model does not know, or one whose own declaration
    disagrees with the model's, would silently corrupt the posterior.
    """
    if source.name not in STREAMS:
        raise KeyError(
            f"no observation model for observed stream {source.name!r}; "
            f"modelled: {sorted(STREAMS)}")
    wiring = STREAMS[source.name]
    declared = (source.channel, source.biased)
    if declared != wiring:
        raise ValueError(
            f"observed stream {source.name!r} declares (channel, biased) = "
            f"{declared}, but the observation model weighs it as {wiring}")
    return wiring


@dataclass(frozen=True)
class ObservationModel:
    """The paper's observation model: thinning mode and likelihood noise."""

    sigma: float = 1.0
    bias_mode: str = "sample"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")
        if self.bias_mode not in ("sample", "mean"):
            raise ValueError(f"bias_mode must be 'sample' or 'mean', "
                             f"got {self.bias_mode!r}")
        object.__setattr__(self, "sigma", float(self.sigma))

    def loglik_ensemble(self, observations: ObservationSet,
                        ensemble: "ParticleEnsemble", rho: np.ndarray,
                        rng: np.random.Generator | None) -> np.ndarray:
        """Log-likelihood of every particle over the streams present.

        Returns the ``(n_particles,)`` vector of summed per-stream
        log-likelihoods, evaluated in observation-set order (see the module
        docstring for the draw order).  An observed stream missing from
        :data:`~repro.data.sources.STREAMS` is a ``KeyError``; one declaring
        another channel or thinning than the table is a ``ValueError``.
        """
        rho_arr = np.asarray(rho, dtype=np.float64)
        if rho_arr.shape != (len(ensemble),):
            raise ValueError(
                f"rho must have one entry per particle: expected shape "
                f"({len(ensemble)},), got {rho_arr.shape}")
        total = np.zeros(len(ensemble), dtype=np.float64)
        for source in observations:
            channel, biased = _wiring(source)
            observed = source.series
            simulated = ensemble.segment_matrix(channel, observed.start_day,
                                                observed.end_day)
            if biased:
                simulated = _thin(simulated, rho_arr, self.bias_mode, rng)
            if simulated.ndim != 2 or simulated.shape[1] != len(observed):
                raise ValueError(
                    f"segments not aligned with observed window: got shape "
                    f"{simulated.shape}, expected (n_particles, {len(observed)})")
            total += _sqrt_gaussian_loglik(observed.values, simulated,
                                           self.sigma)
        return total

    def fingerprint_payload(self) -> dict[str, dict[str, object]]:
        """JSON-stable identity of everything here that moves the weights:
        per modelled stream its channel and sigma, plus the bias mode when
        thinned."""
        payload: dict[str, dict[str, object]] = {}
        for name, (channel, biased) in STREAMS.items():
            entry: dict[str, object] = {"channel": channel,
                                        "sigma": self.sigma}
            if biased:
                entry["bias"] = self.bias_mode
            payload[name] = entry
        return payload
