"""Synthetic observation generation (binomial thinning of true counts).

Section V-A of the paper constructs the "empirical" data by applying the
binomial reporting-bias model (eq. 2) to trajectories of the simulator: each
true event is independently observed with probability ``rho_t``, so

    observed_t ~ Binomial(true_t, rho_t)

with ``rho_t`` following the piecewise-constant schedule of the experiment.
This module implements that thinning for the ground truth; the thinning the
calibrator weighs particles with (and its ``mean`` mode) lives in
:mod:`repro.core.observation`.
"""

from __future__ import annotations

import numpy as np

from .schedule import PiecewiseConstant
from .series import TimeSeries

__all__ = ["binomial_thin"]


def _rho_per_day(series: TimeSeries, rho: float | PiecewiseConstant) -> np.ndarray:
    """Evaluate a scalar or scheduled reporting probability on the day axis."""
    if isinstance(rho, PiecewiseConstant):
        rho_arr = np.asarray(rho(series.days), dtype=np.float64)
    else:
        rho_arr = np.full(len(series), float(rho))
    if np.any((rho_arr < 0.0) | (rho_arr > 1.0)):
        raise ValueError("reporting probability must lie in [0, 1]")
    return rho_arr


def binomial_thin(series: TimeSeries, rho: float | PiecewiseConstant,
                  rng: np.random.Generator) -> TimeSeries:
    """Thin true counts with per-event observation probability ``rho``.

    Values are rounded to whole counts first (binomial needs integer trials).
    Returns a series of observed counts on the same day axis.
    """
    rho_arr = _rho_per_day(series, rho)
    n = np.rint(series.values).astype(np.int64)
    if np.any(n < 0):
        raise ValueError("cannot thin negative counts")
    observed = rng.binomial(n, rho_arr)
    return TimeSeries(series.start_day, observed.astype(np.float64),
                      name=f"observed_{series.name}" if series.name else "observed")
