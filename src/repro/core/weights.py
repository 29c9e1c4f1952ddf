"""Importance-weight arithmetic in log space.

All weights in the library are carried as unnormalised log-weights until the
moment they are needed as probabilities; normalisation goes through a stable
log-sum-exp.  This is the standard defence against the exponent underflow
that raw likelihood products suffer from (a 14-day Gaussian window easily
reaches ``exp(-500)``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["logsumexp", "normalize_log_weights", "effective_sample_size",
           "weight_entropy", "weighted_mean", "weighted_quantile"]


def logsumexp(log_values: np.ndarray) -> float:
    """Stable ``log(sum(exp(v)))``; ``-inf`` for an all ``-inf`` input."""
    arr = np.asarray(log_values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("logsumexp of empty array")
    hi = float(np.max(arr))
    if hi == -np.inf:
        return -np.inf
    return hi + float(np.log(np.sum(np.exp(arr - hi))))


def normalize_log_weights(log_weights: np.ndarray) -> np.ndarray:
    """Convert log-weights to a normalised probability vector.

    Raises
    ------
    ValueError
        If every weight is zero (``-inf`` log-weight) — total particle
        degeneracy that the caller must handle explicitly.
    """
    arr = np.asarray(log_weights, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot normalise an empty weight vector")
    if np.any(np.isnan(arr)):
        raise ValueError("NaN log-weight encountered")
    total = logsumexp(arr)
    if total == -np.inf:
        raise ValueError(
            "all particles have zero weight; the proposal missed the data "
            "entirely (increase ensemble size or widen priors)")
    w = np.exp(arr - total)
    return w / w.sum()  # renormalise away rounding


def effective_sample_size(weights: np.ndarray) -> float:
    """Kish effective sample size ``1 / sum(w_i^2)`` of normalised weights."""
    w = np.asarray(weights, dtype=np.float64)
    if w.size == 0:
        raise ValueError("empty weight vector")
    total_sq = float(np.sum(w * w))
    if total_sq <= 0.0:
        raise ValueError("weights must not be all zero")
    return 1.0 / total_sq


def weight_entropy(weights: np.ndarray) -> float:
    """Shannon entropy of normalised weights (nats).

    ``log(n)`` for uniform weights, 0 when one particle carries everything.
    """
    w = np.asarray(weights, dtype=np.float64)
    nz = w[w > 0]
    return float(-np.sum(nz * np.log(nz)))


def weighted_mean(values: np.ndarray, weights: np.ndarray) -> float:
    """Mean of ``values`` under normalised weights."""
    v = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if v.shape != w.shape:
        raise ValueError("values and weights must have the same shape")
    return float(np.sum(v * w))


def weighted_quantile(values: np.ndarray, weights: np.ndarray,
                      q: float | np.ndarray) -> np.ndarray | float:
    """Quantiles of a weighted sample (inverse-CDF convention).

    ``q`` may be a scalar or an array of probabilities in [0, 1].
    """
    v = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if v.shape != w.shape:
        raise ValueError("values and weights must have the same shape")
    if v.size == 0:
        raise ValueError("empty sample")
    # np.isscalar is False for 0-d arrays, which must still collapse to a
    # python float; np.ndim covers both.
    scalar_q = np.ndim(q) == 0
    q_arr = np.atleast_1d(np.asarray(q, dtype=np.float64))
    if np.any((q_arr < 0) | (q_arr > 1)):
        raise ValueError("quantile probabilities must lie in [0, 1]")
    order = np.argsort(v, kind="stable")
    v_sorted = v[order]
    cdf = np.cumsum(w[order])
    if cdf[-1] <= 0.0:
        raise ValueError("weights must not be all zero")
    cdf /= cdf[-1]
    idx = np.searchsorted(cdf, q_arr, side="left")
    idx = np.clip(idx, 0, v.size - 1)
    out = v_sorted[idx]
    return float(out[0]) if scalar_q else out
