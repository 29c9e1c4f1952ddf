"""Uncertainty-quantification validation utilities.

The paper's title promises *improved uncertainty quantification*; these
utilities measure whether the produced posteriors actually are calibrated:

* :func:`posterior_rank` / :func:`sbc_ranks_uniformity` — simulation-based
  calibration (Talts et al. 2018): if truths are drawn from the prior and
  the pipeline is exact, the rank of each truth within its posterior sample
  is uniform.  A chi-square statistic against uniformity flags over- or
  under-dispersed posteriors.
* :func:`interval_coverage` — empirical coverage of credible intervals over
  repeated runs (a 90% interval should contain the truth ~90% of the time).
* :func:`crps` — the continuous ranked probability score of a posterior
  sample against the realised truth; a proper scoring rule for comparing
  calibration variants (e.g. cases-only vs cases+deaths, Fig 4 vs Fig 5).
"""

from __future__ import annotations

import numpy as np

__all__ = ["posterior_rank", "sbc_ranks_uniformity", "interval_coverage",
           "crps"]


def posterior_rank(truth: float, posterior_samples: np.ndarray) -> int:
    """Rank of the truth within a posterior sample (0..n inclusive).

    The SBC statistic: number of posterior draws strictly below the truth.
    """
    draws = np.asarray(posterior_samples, dtype=np.float64)
    if draws.ndim != 1 or draws.size == 0:
        raise ValueError("posterior_samples must be a non-empty 1-d array")
    return int(np.sum(draws < truth))


def sbc_ranks_uniformity(ranks: np.ndarray, n_posterior: int,
                         n_bins: int = 10) -> dict:
    """Chi-square test of SBC rank uniformity.

    Parameters
    ----------
    ranks:
        One rank per replication, each in ``0..n_posterior``.
    n_posterior:
        Posterior sample size used for every rank.
    n_bins:
        Histogram bins for the chi-square statistic.

    Returns
    -------
    dict with ``statistic``, ``p_value``, ``bin_counts``, and a boolean
    ``calibrated`` at the 1% level (lenient: SBC is a screening tool).

    The ``n_posterior + 1`` possible ranks need not split evenly across the
    bins, so each bin expects ``ranks.size`` times the share of possible
    ranks it holds.
    """
    r = np.asarray(ranks, dtype=np.int64)
    if r.ndim != 1 or r.size == 0:
        raise ValueError("ranks must be a non-empty 1-d array")
    if np.any((r < 0) | (r > n_posterior)):
        raise ValueError("ranks must lie in [0, n_posterior]")
    if n_bins < 2 or n_bins > n_posterior + 1:
        raise ValueError("n_bins must be in [2, n_posterior + 1]")
    edges = np.linspace(0, n_posterior + 1, n_bins + 1)
    counts, _ = np.histogram(r, bins=edges)
    ranks_per_bin, _ = np.histogram(np.arange(n_posterior + 1), bins=edges)
    expected = r.size * ranks_per_bin / (n_posterior + 1)
    statistic = float(np.sum((counts - expected) ** 2 / expected))
    from scipy import stats
    p_value = float(stats.chi2.sf(statistic, df=n_bins - 1))
    return {"statistic": statistic, "p_value": p_value,
            "bin_counts": counts.tolist(), "calibrated": p_value > 0.01}


def interval_coverage(truths: np.ndarray, lowers: np.ndarray,
                      uppers: np.ndarray) -> float:
    """Fraction of truths inside their per-run credible intervals."""
    t = np.asarray(truths, dtype=np.float64)
    lo = np.asarray(lowers, dtype=np.float64)
    hi = np.asarray(uppers, dtype=np.float64)
    if not (t.shape == lo.shape == hi.shape) or t.size == 0:
        raise ValueError("truths/lowers/uppers must share a non-empty shape")
    if np.any(lo > hi):
        raise ValueError("interval bounds reversed")
    return float(np.mean((t >= lo) & (t <= hi)))


def crps(posterior_samples: np.ndarray, truth: float) -> float:
    """Continuous ranked probability score (lower is better).

    Sample-based estimator ``E|X - y| - 0.5 E|X - X'|`` using the O(n log n)
    sorted form for the second term.
    """
    x = np.sort(np.asarray(posterior_samples, dtype=np.float64))
    n = x.size
    if n == 0:
        raise ValueError("empty posterior sample")
    term1 = float(np.mean(np.abs(x - truth)))
    # E|X - X'| = 2/n^2 * sum_i (2i - n - 1) x_(i)   (1-based i)
    i = np.arange(1, n + 1)
    gini = 2.0 / (n * n) * float(np.sum((2 * i - n - 1) * x))
    return term1 - 0.5 * gini
