"""The per-particle weighting reference.

:func:`loglik_reference` scores one particle at a time with plain loops:
thin the particle's counts (paper eq. 2), take square roots and sum the
Gaussian terms (eq. 3) per observed source, then add the sources (eq. 4).
No production path calls it.  It is the oracle the batched
:meth:`~repro.core.observation.ObservationModel.loglik_ensemble` is checked
against, and it calls none of the batched code
(``BinomialBiasModel.apply_batch``, ``GaussianTransformLikelihood.loglik_batch``),
so the two stay independent implementations of one formula.

Draw order (``sample`` mode)
----------------------------
The reference thins particle by particle, and within a particle source by
source in observation-set order.  With several biased sources its draws
therefore interleave per particle across sources, while the batched path
thins source-major (see :mod:`repro.core.bias`): the thinned counts are
equal in distribution but not bit-identical.  With a *single* biased
source (the paper's cases-only bias) the two orders coincide, so the two
paths agree bit for bit in both bias modes — provided each particle's
segment exactly spans the observed window.  The reference thins a
segment's *full* day range before windowing, so a wider segment consumes
extra draws for the out-of-window days and shifts the stream relative to
the batched path, which the calibrator always hands segments cut to the
window.  In ``mean`` mode the paths agree to float summation order.
"""

from __future__ import annotations

import numpy as np

from ..core.observation import ObservationModel
from ..core.particle import ParticleEnsemble
from ..data.series import TimeSeries
from ..data.sources import ObservationSet
from ..seir.batch_engine import BatchTrajectory

__all__ = ["thin", "gaussian_sqrt_loglik", "particle_loglik",
           "loglik_reference"]


def thin(counts: np.ndarray, rho: float, mode: str,
         rng: np.random.Generator | None = None) -> np.ndarray:
    """One particle's simulated observed counts under reporting rate ``rho``.

    ``mode`` is ``"sample"`` (binomial draw, needs ``rng``) or ``"mean"``
    (``rho * counts``), as in :class:`~repro.core.bias.BinomialBiasModel`.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    values = np.asarray(counts, dtype=np.float64)
    if np.any(values < 0):
        raise ValueError("true counts must be non-negative")
    if mode == "mean":
        return rho * values
    if rng is None:
        raise ValueError("sample mode requires an rng")
    n = np.rint(values).astype(np.int64)
    return rng.binomial(n, rho).astype(np.float64)


def gaussian_sqrt_loglik(observed: np.ndarray, simulated: np.ndarray,
                         sigma: float = 1.0) -> float:
    """Gaussian log-likelihood of one window on square-root counts."""
    y = np.asarray(observed, dtype=np.float64)
    eta = np.asarray(simulated, dtype=np.float64)
    if y.shape != eta.shape:
        raise ValueError(f"shape mismatch: observed {y.shape} vs simulated {eta.shape}")
    if y.size == 0:
        raise ValueError("empty observation window")
    if np.any(y < 0) or np.any(eta < 0):
        raise ValueError("sqrt transform requires non-negative counts")
    resid = np.sqrt(y) - np.sqrt(eta)
    return float(-0.5 * y.size * np.log(2.0 * np.pi * sigma**2)
                 - 0.5 * float(resid @ resid) / sigma**2)


def particle_loglik(model: ObservationModel, observations: ObservationSet,
                    trajectory: BatchTrajectory, rho: float,
                    rng: np.random.Generator | None) -> float:
    """Summed per-source log-likelihood of one particle's trajectory (a
    one-row batch)."""
    total = 0.0
    for obs_source in observations:
        source = model.source(obs_source.name)
        values = trajectory.channel_matrix(source.channel)[0]
        if source.biased:
            values = thin(values, rho, source.bias.mode, rng)
        observed = obs_source.series
        simulated = TimeSeries(trajectory.start_day, values).window(
            observed.start_day, observed.end_day)
        total += gaussian_sqrt_loglik(observed.values, simulated.values,
                                      source.likelihood.sigma)
    return total


def loglik_reference(model: ObservationModel, observations: ObservationSet,
                     ensemble: ParticleEnsemble,
                     rng: np.random.Generator | None) -> np.ndarray:
    """Per-particle counterpart of ``model.loglik_ensemble``: one
    :func:`particle_loglik` per ensemble row, reading that row of the
    segments and of ``rho`` and sharing ``rng`` in row order."""
    segments = ensemble.trajectory_batch("segment")
    rho = ensemble.values("rho")
    return np.array([particle_loglik(model, observations, segments.take([i]),
                                     float(rho[i]), rng)
                     for i in range(len(ensemble))])
