"""The Gaussian-on-square-root-counts likelihood (paper eq. 3).

The paper's observation model (eq. 2-4) is an independent Gaussian on
square-root transformed counts per day, per data source, with
``sigma_t = 1`` (section V-B).  The square root is the classical
variance-stabilising transform for Poisson-like counts; with it a single
noise scale is meaningful across four orders of magnitude of case counts.
The multi-source posterior factorises as a product of per-source
likelihoods (eq. 4), so the log-likelihoods add
(:class:`~repro.core.observation.ObservationModel` sums them over its named
sources: cases alone for Fig 3/4, cases + deaths for Fig 5).

Every window scores its whole ensemble in one
:meth:`GaussianTransformLikelihood.loglik_batch` call per source.  The
per-particle reference it is checked against lives in
:mod:`repro.testing.weighting`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["GaussianTransformLikelihood", "paper_likelihood"]


class GaussianTransformLikelihood:
    """Independent Gaussian on square-root counts (the paper's eq. 3).

    ``log l = -n/2 log(2 pi sigma^2) - 1/(2 sigma^2) sum_t (sqrt(y_t) - sqrt(eta_t))^2``

    with ``sigma = 1`` in the paper experiments.
    """

    def __init__(self, sigma: float = 1.0) -> None:
        if not (math.isfinite(sigma) and sigma > 0):
            raise ValueError(f"sigma must be finite and > 0, got {sigma}")
        self.sigma = float(sigma)

    def loglik_batch(self, observed: np.ndarray,
                     simulated: np.ndarray) -> np.ndarray:
        """Log-likelihood of one observed window under a stack of simulations.

        ``observed`` is the ``(n_days,)`` observed counts and ``simulated``
        the ``(n_particles, n_days)`` simulated observed counts; returns the
        ``(n_particles,)`` vector of summed per-day terms.  Counts must be
        non-negative: the square root of a negative count has no meaning,
        and such a count can only come from malformed input.
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
        return (-0.5 * n * np.log(2.0 * np.pi * self.sigma**2)
                - 0.5 * np.einsum("ij,ij->i", resid, resid) / self.sigma**2)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GaussianTransformLikelihood(sigma={self.sigma})"


def paper_likelihood(sigma: float = 1.0) -> GaussianTransformLikelihood:
    """The paper's Gaussian-on-sqrt-counts likelihood with unit sigma."""
    return GaussianTransformLikelihood(sigma=sigma)
