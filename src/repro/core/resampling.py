"""Resampling schemes for the SIS update.

The paper resamples particles "with probabilities proportional to the
importance weights" — plain multinomial resampling (Algorithm 1, step 4),
including the Figure 3 case of drawing a posterior sample *larger or smaller*
than the prior ensemble (500,000 prior trajectories down-sampled to 10,000).

The tempered bridge (:func:`repro.core.adaptive.temper_and_resample`)
resamples each stage systematically instead: one uniform offset and evenly
spaced probes, the lowest-variance of the classical schemes.

Both share one signature::

    indices = resampler(weights, n_out, rng)

returning ancestor indices into the weighted ensemble.
"""

from __future__ import annotations

import numpy as np

__all__ = ["multinomial_resample", "systematic_resample"]


def _validated(weights: np.ndarray, n_out: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-d array")
    if n_out < 1:
        raise ValueError("n_out must be >= 1")
    if np.any(w < 0) or np.any(np.isnan(w)):
        raise ValueError("weights must be non-negative and finite")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights sum to zero")
    return w / total


def multinomial_resample(weights: np.ndarray, n_out: int,
                         rng: np.random.Generator) -> np.ndarray:
    """IID draws from the weight distribution (the paper's scheme)."""
    w = _validated(weights, n_out)
    return rng.choice(w.size, size=n_out, replace=True, p=w)


def systematic_resample(weights: np.ndarray, n_out: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Single uniform offset, evenly spaced CDF probes (lowest variance)."""
    w = _validated(weights, n_out)
    positions = (rng.uniform() + np.arange(n_out)) / n_out
    cdf = np.cumsum(w)
    cdf[-1] = 1.0  # guard rounding
    return np.searchsorted(cdf, positions, side="left").astype(np.int64)
