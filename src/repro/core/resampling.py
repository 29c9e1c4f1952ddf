"""Resampling schemes for the SIS update.

The paper resamples particles "with probabilities proportional to the
importance weights" — plain multinomial resampling (Algorithm 1, step 4),
including the Figure 3 case of drawing a posterior sample *larger or smaller*
than the prior ensemble (500,000 prior trajectories down-sampled to 10,000).

Multinomial resampling is unbiased but adds the most Monte-Carlo variance of
the classical schemes, so the library also ships systematic, stratified, and
residual resamplers; ``benchmarks/bench_ablation_resampling.py`` quantifies
the variance gap.

All resamplers share one signature::

    indices = resampler(weights, n_out, rng)

returning ancestor indices into the weighted ensemble.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["multinomial_resample", "systematic_resample",
           "stratified_resample", "residual_resample", "get_resampler",
           "RESAMPLERS"]


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


def stratified_resample(weights: np.ndarray, n_out: int,
                        rng: np.random.Generator) -> np.ndarray:
    """One uniform probe per stratum ``[k/n, (k+1)/n)``."""
    w = _validated(weights, n_out)
    positions = (rng.uniform(size=n_out) + np.arange(n_out)) / n_out
    cdf = np.cumsum(w)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, positions, side="left").astype(np.int64)


def residual_resample(weights: np.ndarray, n_out: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Deterministic copies of ``floor(n w_i)``, multinomial on the residual."""
    w = _validated(weights, n_out)
    scaled = n_out * w
    # Tolerate floating-point round-off so exactly-integer expected counts
    # (e.g. uniform weights) produce their deterministic copies.
    copies = np.floor(scaled + 1e-9).astype(np.int64)
    indices = np.repeat(np.arange(w.size), copies)
    n_residual = n_out - int(copies.sum())
    if n_residual > 0:
        residual = scaled - copies
        residual_sum = residual.sum()
        if residual_sum <= 0:  # exact integer weights
            extra = rng.choice(w.size, size=n_residual, replace=True, p=w)
        else:
            extra = rng.choice(w.size, size=n_residual, replace=True,
                               p=residual / residual_sum)
        indices = np.concatenate([indices, extra])
    rng.shuffle(indices)
    return indices


RESAMPLERS: dict[str, Callable] = {
    "multinomial": multinomial_resample,
    "systematic": systematic_resample,
    "stratified": stratified_resample,
    "residual": residual_resample,
}


def get_resampler(name: str) -> Callable:
    """Resolve a resampler by configuration name."""
    try:
        return RESAMPLERS[name]
    except KeyError:
        raise ValueError(
            f"unknown resampler {name!r}; available: {sorted(RESAMPLERS)}"
        ) from None
