"""Adaptive extensions addressing the paper's section VI concerns.

The discussion section flags two operational risks of the plain SIS scheme:
weights "concentrating on just a few draws", and posteriors drifting away
from reality when proposals cannot reach it.  This module implements the
standard SMC counter-measure for the first:

* :func:`temper_and_resample` — likelihood tempering *within* a window:
  instead of one jump from prior to posterior, the likelihood is raised
  through exponents ``0 < beta_1 < ... < beta_K = 1``.  Each exponent is
  chosen by bisection on the population the previous stage resampled, so
  that stage's incremental ESS stays at or above a floor; a bridge cut
  short by its stage cap is flagged ``truncated``.  (No re-simulation is
  needed: the tempering reuses the window's simulated trajectories,
  reweighting and resampling among them.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .resampling import get_resampler
from .weights import effective_sample_size, normalize_log_weights

__all__ = ["TemperedResult", "temper_and_resample"]


@dataclass(frozen=True)
class TemperedResult:
    """Outcome of a tempered within-window resampling pass.

    ``truncated`` is true when ``max_stages`` forced the last jump to
    ``beta = 1`` before the ESS floor allowed it.
    """

    indices: np.ndarray
    schedule: tuple[float, ...]
    stage_ess: tuple[float, ...]
    truncated: bool

    @property
    def n_stages(self) -> int:
        return len(self.schedule)


def temper_and_resample(log_lik: np.ndarray, n_out: int,
                        rng: np.random.Generator, *,
                        ess_floor_fraction: float = 0.5,
                        resampler: str = "systematic",
                        max_stages: int = 64) -> TemperedResult:
    """Bridge from the prior ensemble to the posterior through tempering.

    Each stage picks its exponent on the population the previous stage
    resampled: starting from ``beta = 0`` it advances as far as the
    incremental weights ``exp((beta' - beta) L)`` of that population keep
    the ESS at or above ``ess_floor_fraction`` of the ensemble size, then
    resamples.  The bridge ends when the remaining jump to ``beta = 1``
    meets the floor; at ``max_stages`` stages it jumps to 1 regardless and
    flags the result ``truncated``.  Returns ancestor indices into the
    original ensemble.  With a single stage this reduces exactly to the
    plain SIS resampling step.
    """
    if not 0 < ess_floor_fraction < 1:
        raise ValueError("ess_floor_fraction must be in (0, 1)")
    ll = np.asarray(log_lik, dtype=np.float64)
    if ll.ndim != 1 or ll.size == 0:
        raise ValueError("log_lik must be a non-empty 1-d array")
    n = ll.size
    target = ess_floor_fraction * n
    sampler = get_resampler(resampler)

    def next_exponent(cur: np.ndarray, beta: float) -> float:
        """Bisect for the largest exponent whose step from ``beta`` keeps
        the ESS of population ``cur``'s incremental weights at the floor."""
        def ess(to: float) -> float:
            return float(effective_sample_size(
                normalize_log_weights((to - beta) * cur)))
        if ess(1.0) >= target:
            return 1.0
        lo, hi = beta, 1.0
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if ess(mid) >= target else (lo, mid)
        # Guarantee forward progress even for pathological likelihoods.
        return min(max(lo, beta + 1e-4), 1.0)

    current, beta = np.arange(n), 0.0
    schedule: list[float] = []
    stage_ess: list[float] = []
    while beta < 1.0:
        cur = ll[current]
        last = len(schedule) >= max_stages - 1
        beta_next = 1.0 if last else next_exponent(cur, beta)
        w = normalize_log_weights((beta_next - beta) * cur)
        stage_ess.append(float(effective_sample_size(w)))
        schedule.append(beta_next)
        current = current[sampler(w, n_out if beta_next >= 1.0 else n, rng)]
        beta = beta_next
    return TemperedResult(indices=current, schedule=tuple(schedule),
                          stage_ess=tuple(stage_ess),
                          truncated=last and stage_ess[-1] < target)
