"""Likelihoods linking observed data to simulated trajectories.

The paper's observation model (eq. 2-4) is an independent Gaussian on
(square-root transformed) counts per day, per data source; the multi-source
posterior factorises as a product of per-source likelihoods (eq. 4), so the
log-likelihoods add (:class:`~repro.core.observation.ObservationModel` sums
them over its named sources: cases alone for Fig 3/4, cases + deaths for
Fig 5).

:class:`GaussianTransformLikelihood` is the paper's choice (sqrt transform,
``sigma_t = 1``).  :class:`PoissonLikelihood` and
:class:`NegativeBinomialLikelihood` are provided for the likelihood ablation.

The ablation families import ``scipy.stats`` inside their methods, so only
a run that uses them pays its import cost.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..data.series import TimeSeries
from .transforms import SQRT, Transform

__all__ = ["Likelihood", "GaussianTransformLikelihood", "PoissonLikelihood",
           "NegativeBinomialLikelihood", "paper_likelihood"]


class Likelihood(ABC):
    """Scalar log-likelihood of one observed series given one simulated series."""

    @abstractmethod
    def loglik(self, observed: np.ndarray, simulated: np.ndarray) -> float:
        """Total log-likelihood over the window (sums the per-day terms)."""

    def loglik_batch(self, observed: np.ndarray,
                     simulated: np.ndarray) -> np.ndarray:
        """Log-likelihood of one observed window under a stack of simulations.

        Parameters
        ----------
        observed:
            ``(n_days,)`` observed counts.
        simulated:
            ``(n_particles, n_days)`` matrix of simulated observed counts.

        Returns
        -------
        ``(n_particles,)`` vector, row ``i`` equal to
        ``loglik(observed, simulated[i])`` up to floating-point reduction
        order.  This base implementation loops over rows; the concrete
        families override it with closed-form vectorised versions — the hot
        path of the ensemble weighting step.
        """
        y, eta = _check_batch_shapes(observed, simulated)
        return np.array([self.loglik(y, row) for row in eta])

    def loglik_series(self, observed: TimeSeries, simulated: TimeSeries) -> float:
        """:meth:`loglik` with day-axis alignment checks."""
        if observed.start_day != simulated.start_day or len(observed) != len(simulated):
            raise ValueError(
                f"series not aligned: observed [{observed.start_day}, "
                f"{observed.end_day}) vs simulated [{simulated.start_day}, "
                f"{simulated.end_day})")
        return self.loglik(observed.values, simulated.values)


def _check_shapes(observed: np.ndarray, simulated: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(observed, dtype=np.float64)
    eta = np.asarray(simulated, dtype=np.float64)
    if y.shape != eta.shape:
        raise ValueError(f"shape mismatch: observed {y.shape} vs simulated {eta.shape}")
    if y.size == 0:
        raise ValueError("empty observation window")
    return y, eta


def _check_batch_shapes(observed: np.ndarray,
                        simulated: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    return y, eta


class GaussianTransformLikelihood(Likelihood):
    """Independent Gaussian on transformed counts (the paper's eq. 3).

    ``log l = -n/2 log(2 pi sigma^2) - 1/(2 sigma^2) sum_t (T(y_t) - T(eta_t))^2``

    with ``T`` the square root and ``sigma = 1`` in the paper experiments.
    """

    def __init__(self, sigma: float = 1.0, transform: Transform = SQRT) -> None:
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.sigma = float(sigma)
        self.transform = transform

    def loglik(self, observed: np.ndarray, simulated: np.ndarray) -> float:
        y, eta = _check_shapes(observed, simulated)
        resid = self.transform(y) - self.transform(eta)
        n = resid.size
        return float(-0.5 * n * np.log(2.0 * np.pi * self.sigma**2)
                     - 0.5 * float(resid @ resid) / self.sigma**2)

    def loglik_batch(self, observed: np.ndarray,
                     simulated: np.ndarray) -> np.ndarray:
        y, eta = _check_batch_shapes(observed, simulated)
        resid = self.transform(y)[None, :] - self.transform(eta)
        n = y.size
        return (-0.5 * n * np.log(2.0 * np.pi * self.sigma**2)
                - 0.5 * np.einsum("ij,ij->i", resid, resid) / self.sigma**2)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"GaussianTransformLikelihood(sigma={self.sigma}, "
                f"transform={self.transform.name!r})")


class PoissonLikelihood(Likelihood):
    """Exact Poisson pmf with the simulated counts as intensities.

    Zero intensities are floored at ``epsilon`` so an early-window simulated
    zero does not annihilate a particle that is otherwise consistent.
    """

    def __init__(self, epsilon: float = 0.5) -> None:
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.epsilon = float(epsilon)

    def loglik(self, observed: np.ndarray, simulated: np.ndarray) -> float:
        y, eta = _check_shapes(observed, simulated)
        lam = np.maximum(eta, self.epsilon)
        from scipy import stats
        return float(np.sum(stats.poisson.logpmf(np.rint(y).astype(np.int64), lam)))

    def loglik_batch(self, observed: np.ndarray,
                     simulated: np.ndarray) -> np.ndarray:
        y, eta = _check_batch_shapes(observed, simulated)
        lam = np.maximum(eta, self.epsilon)
        counts = np.rint(y).astype(np.int64)[None, :]
        from scipy import stats
        return np.sum(stats.poisson.logpmf(counts, lam), axis=1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PoissonLikelihood(epsilon={self.epsilon})"


class NegativeBinomialLikelihood(Likelihood):
    """Negative binomial with dispersion ``k`` (variance ``m + m^2/k``).

    Interpolates between Poisson (``k -> inf``) and heavy overdispersion;
    the robust-likelihood ablation sweeps ``k``.
    """

    def __init__(self, dispersion: float = 10.0, epsilon: float = 0.5) -> None:
        if dispersion <= 0:
            raise ValueError("dispersion must be positive")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.dispersion = float(dispersion)
        self.epsilon = float(epsilon)

    def loglik(self, observed: np.ndarray, simulated: np.ndarray) -> float:
        y, eta = _check_shapes(observed, simulated)
        m = np.maximum(eta, self.epsilon)
        k = self.dispersion
        p = k / (k + m)
        from scipy import stats
        return float(np.sum(stats.nbinom.logpmf(np.rint(y).astype(np.int64), k, p)))

    def loglik_batch(self, observed: np.ndarray,
                     simulated: np.ndarray) -> np.ndarray:
        y, eta = _check_batch_shapes(observed, simulated)
        m = np.maximum(eta, self.epsilon)
        k = self.dispersion
        p = k / (k + m)
        counts = np.rint(y).astype(np.int64)[None, :]
        from scipy import stats
        return np.sum(stats.nbinom.logpmf(counts, k, p), axis=1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NegativeBinomialLikelihood(dispersion={self.dispersion})"


def paper_likelihood(sigma: float = 1.0) -> GaussianTransformLikelihood:
    """The paper's Gaussian-on-sqrt-counts likelihood with unit sigma."""
    return GaussianTransformLikelihood(sigma=sigma, transform=SQRT)
