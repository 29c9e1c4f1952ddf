"""Adaptive ensemble-size control (the ROADMAP's "adaptive sizing" item).

The paper's section VI warns that SIS weights can "concentrate on just a few
draws".  The repo already ships the within-window counter-measures
(:mod:`repro.core.adaptive`: tempering, adaptive jitter, conditional
resampling), but the ensemble size itself was a fixed ``n_parameter_draws``
per run.  With window simulation batched and sharded (18x cheaper than the
per-particle path), re-sizing the cloud *between* windows becomes affordable,
as in the SMC\\ :sup:`2` line of work: grow the cloud when the effective
sample size collapses, shrink it once the posterior has converged, and spend
the saved particle-steps where the data are actually informative.

:class:`EnsembleSizePolicy` is the protocol the calibrator consults after
weighting each window; the decision applies to the *next* window's proposal
count, flowing through the existing proposal machinery (cycled resampled
parents, jitter, per-draw restart seeds) and the per-window shard layout
(:func:`repro.hpc.sharding.resolve_shard_layout` recomputes bounds from
whatever size arrives).  Concrete policies:

* :class:`FixedSize` — the status quo: every continuation window uses the
  configured ``resample_size * n_continuations`` cloud.
* :class:`ESSTargetPolicy` — multiplicative control with hysteresis: grow
  by ``growth_factor`` when the window's post-weighting ESS fraction falls
  below ``target_low``, shrink by ``shrink_factor`` when it rises above
  ``target_high``, hold inside the band; always clamped to
  ``[n_min, n_max]``.

All policies are deterministic pure functions of the window diagnostics, so
adaptive runs stay bit-reproducible for a fixed ``(base_seed, policy, shard
layout)`` — the reproducibility contract of :mod:`repro.hpc.sharding` is
unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Protocol, runtime_checkable

from .diagnostics import WindowDiagnostics

__all__ = ["EnsembleSizePolicy", "FixedSize", "ESSTargetPolicy",
           "SIZE_POLICY_NAMES", "make_size_policy", "resolve_size_policy"]


@runtime_checkable
class EnsembleSizePolicy(Protocol):
    """Decides the next window's proposal-cloud size.

    Called once per calibrated window (after weighting, before the next
    window's proposals are drawn).  Implementations must be deterministic:
    the same arguments must always produce the same size, or runs stop
    being bit-reproducible.
    """

    def next_size(self, *, window_index: int, current_size: int,
                  diagnostics: WindowDiagnostics,
                  next_window_days: int) -> int:
        """Size decision for the cloud after ``window_index``.

        Parameters
        ----------
        window_index:
            Index of the window just weighted.
        current_size:
            The **realised** size of the just-weighted cloud
            (``== diagnostics.n_particles`` — for window 0 the
            ``n_parameter_draws * n_replicates`` prior cloud, *not* the
            planned continuation size, so a grow decision after a
            degenerate first window multiplies the base the ESS fraction
            was actually measured on).  A multiplicative policy should
            scale ``current_size``; a pass-through "keep the classic size"
            policy must pin an explicit size instead (the calibrator pins
            the default ``FixedSize()`` to ``continuation_ensemble_size``).
        diagnostics:
            The just-weighted window's degeneracy diagnostics (ESS fraction,
            cloud size, particle-steps).
        next_window_days:
            Length in days of the window the decision applies to.
        """
        ...


def _clamp(size: float, n_min: int, n_max: int) -> int:
    return int(min(max(int(math.ceil(size)), n_min), n_max))


@dataclass(frozen=True)
class FixedSize:
    """The non-adaptive baseline: keep the current (realised) size.

    ``size=None`` (the default) passes ``current_size`` through.  The
    calibrator pins the default instance to its classic fixed size
    (``resample_size * n_continuations``), so a ``"fixed"`` run stays
    bit-identical to one with no policy at all.  An explicit ``size`` pins
    every decision to that count.
    """

    size: int | None = None

    def __post_init__(self) -> None:
        if self.size is not None and self.size < 1:
            raise ValueError("size must be >= 1")

    def next_size(self, *, window_index: int, current_size: int,
                  diagnostics: WindowDiagnostics,
                  next_window_days: int) -> int:
        return int(self.size if self.size is not None else current_size)


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

    def next_size(self, *, window_index: int, current_size: int,
                  diagnostics: WindowDiagnostics,
                  next_window_days: int) -> int:
        fraction = diagnostics.ess_fraction
        if fraction < self.target_low:
            proposed = current_size * self.growth_factor
        elif fraction > self.target_high:
            proposed = current_size * self.shrink_factor
        else:
            proposed = float(current_size)
        return _clamp(proposed, self.n_min, self.n_max)


#: Declarative policy names accepted by configs and the CLI.
SIZE_POLICY_NAMES = ("fixed", "ess")


def make_size_policy(name: str, **options: Any) -> EnsembleSizePolicy:
    """Build a policy from its declarative name and keyword options."""
    if name == "fixed":
        return FixedSize(**options)
    if name == "ess":
        return ESSTargetPolicy(**options)
    raise ValueError(f"unknown size policy {name!r}; "
                     f"available: {SIZE_POLICY_NAMES}")


def resolve_size_policy(policy: "str | EnsembleSizePolicy",
                        options: Mapping | None = None) -> EnsembleSizePolicy:
    """Turn a config's policy knob (name or instance) into a policy object.

    A string goes through :func:`make_size_policy` with ``options``; an
    object is validated against the protocol and returned as-is (``options``
    must then be empty — they would be silently ignored otherwise).
    """
    opts = dict(options or {})
    if isinstance(policy, str):
        return make_size_policy(policy, **opts)
    if opts:
        raise ValueError("size_policy_options only apply to a named policy, "
                         "not a policy instance")
    if not isinstance(policy, EnsembleSizePolicy):
        raise ValueError(f"{policy!r} does not implement EnsembleSizePolicy "
                         "(needs a next_size method)")
    return policy
