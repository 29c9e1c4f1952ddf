"""Adaptive ensemble-size control (the ROADMAP's "adaptive sizing" item).

The paper's section VI warns that SIS weights can "concentrate on just a few
draws".  The within-window counter-measure is the tempered bridge of
:mod:`repro.core.adaptive`, but the ensemble size itself was a fixed
``n_parameter_draws`` per run.  With window simulation batched and sharded,
re-sizing the cloud *between* windows becomes affordable, as in the
SMC\\ :sup:`2` line of work: grow the cloud when the effective sample size
collapses, shrink it once the posterior has converged, and spend the saved
particle-steps where the data are actually informative.

``SMCConfig.size_policy`` names one of :data:`SIZE_POLICY_NAMES`.
``"fixed"`` keeps every continuation window at the configured
``resample_size * n_continuations`` cloud; ``"ess"`` consults
:class:`ESSTargetPolicy` after weighting each window.  The decision applies
to the *next* window's proposal count, flowing through the existing
proposal machinery (cycled resampled parents, jitter, per-draw restart
seeds) and the per-window shard layout
(:func:`repro.hpc.sharding.resolve_shard_layout` recomputes bounds from
whatever size arrives).

The policy is a deterministic pure function of the window diagnostics, so
adaptive runs stay bit-reproducible for a fixed ``(base_seed, policy, shard
layout)`` — the reproducibility contract of :mod:`repro.hpc.sharding` is
unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diagnostics import WindowDiagnostics

__all__ = ["ESSTargetPolicy", "SIZE_POLICY_NAMES"]

#: Declarative policy names accepted by configs and the CLI.
SIZE_POLICY_NAMES = ("fixed", "ess")


@dataclass(frozen=True)
class ESSTargetPolicy:
    """Multiplicative ESS-fraction controller with a hysteresis band.

    After each window, the post-weighting ESS fraction ``f`` is compared to
    the band ``[target_low, target_high]``:

    * ``f < target_low`` — weights are concentrating: the next cloud grows
      by ``growth_factor``;
    * ``f > target_high`` — the posterior is comfortable: the next cloud
      shrinks by ``shrink_factor``, banking the saved particle-steps;
    * inside the band — hold (the hysteresis that prevents the size from
      oscillating between two adjacent windows).

    The output is always clamped to ``[n_min, n_max]``, and the response is
    monotone in ESS: a lower fraction never yields a smaller next cloud.
    """

    target_low: float = 0.1
    target_high: float = 0.5
    growth_factor: float = 2.0
    shrink_factor: float = 0.5
    n_min: int = 50
    n_max: int = 100_000

    def __post_init__(self) -> None:
        if not 0 < self.target_low < self.target_high <= 1:
            raise ValueError("need 0 < target_low < target_high <= 1")
        if self.growth_factor < 1:
            raise ValueError("growth_factor must be >= 1")
        if not 0 < self.shrink_factor <= 1:
            raise ValueError("shrink_factor must be in (0, 1]")
        if not 1 <= self.n_min <= self.n_max:
            raise ValueError("need 1 <= n_min <= n_max")

    def next_size(self, *, current_size: int,
                  diagnostics: WindowDiagnostics) -> int:
        """Size of the cloud after the window ``diagnostics`` describe.

        ``current_size`` is the **realised** size of the just-weighted cloud
        (``== diagnostics.n_particles`` — for window 0 the
        ``n_parameter_draws * n_replicates`` prior cloud, *not* the planned
        continuation size, so a grow decision after a degenerate first
        window multiplies the base the ESS fraction was actually measured
        on).
        """
        fraction = diagnostics.ess_fraction
        if fraction < self.target_low:
            proposed = current_size * self.growth_factor
        elif fraction > self.target_high:
            proposed = current_size * self.shrink_factor
        else:
            proposed = float(current_size)
        return int(min(max(int(math.ceil(proposed)), self.n_min), self.n_max))
