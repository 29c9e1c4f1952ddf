"""Weight-degeneracy diagnostics for the SIS update.

Section VI of the paper discusses the failure modes this module watches for:
posterior weights concentrating on a few draws, and highly weighted
trajectories that still do not track reality.  The calibrator records a
:class:`WindowDiagnostics` per window; with
``SMCConfig.temper_degenerate`` the tempered bridge resamples a window
whose ESS fraction falls below ``temper_threshold`` (by default
:data:`DEGENERACY_THRESHOLD`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .weights import effective_sample_size, logsumexp, weight_entropy

__all__ = ["WindowDiagnostics", "compute_diagnostics"]

#: Below this ESS fraction a window is degenerate (the default
#: ``temper_threshold``).
DEGENERACY_THRESHOLD = 0.05


@dataclass(frozen=True)
class WindowDiagnostics:
    """Summary statistics of one window's importance weights.

    Attributes
    ----------
    n_particles:
        Size of the weighted (pre-resampling) ensemble.
    ess:
        Kish effective sample size.
    ess_fraction:
        ``ess / n_particles``.
    entropy:
        Shannon entropy of the normalised weights (nats).
    entropy_fraction:
        Entropy relative to the uniform maximum ``log(n)``; 1.0 for a
        single-particle ensemble, whose only attainable distribution is
        uniform.
    max_weight:
        Largest single normalised weight.
    unique_ancestors:
        Distinct ancestors surviving the resampling step.
    log_evidence:
        Log of the window's average unnormalised weight — an estimate of the
        incremental marginal likelihood ``log p(y_window | y_past)``.
    particle_steps:
        Simulation cost of producing this window's cloud, in particle-days
        (ensemble size times days simulated, including burn-in for the
        first window).  The adaptive ensemble-size policies trade this
        against ESS; 0 when the producer did not record it.
    temper_schedule:
        Realised tempering exponents of the window's resampling pass when
        the calibrator routed it through the tempered bridge
        (:func:`repro.core.adaptive.temper_and_resample`); empty for a
        plain single-pass resample.  A schedule longer than one stage is
        the audit trail of a degenerate window that was rescued.
    temper_stage_ess:
        Per-stage incremental ESS realised along ``temper_schedule``
        (same length; empty when no tempering ran).
    temper_truncated:
        True when the bridge's stage cap forced the last jump to
        ``beta = 1`` below the ESS floor.
    shard_failures:
        Recovered shard-dispatch failures while producing this window's
        cloud (each is one failed attempt of one shard that was retried to
        success — see :class:`repro.hpc.faults.ShardFailure`).  Execution
        metadata, not statistical state: a retried run reports its
        recoveries here while its weights/posterior stay bit-identical to
        a fault-free run.
    shard_failure_causes:
        The cause code of each recovered failure, in occurrence order
        (same length as ``shard_failures``).
    """

    n_particles: int
    ess: float
    ess_fraction: float
    entropy: float
    entropy_fraction: float
    max_weight: float
    unique_ancestors: int
    log_evidence: float
    particle_steps: int = 0
    temper_schedule: tuple[float, ...] = ()
    temper_stage_ess: tuple[float, ...] = ()
    temper_truncated: bool = False
    shard_failures: int = 0
    shard_failure_causes: tuple[str, ...] = ()

    @property
    def tempered(self) -> bool:
        """True when the window's resampling ran through the tempered bridge."""
        return len(self.temper_schedule) > 0

    @property
    def temper_stages(self) -> int:
        """Number of bridge stages (0 when no tempering ran, 1 = plain)."""
        return len(self.temper_schedule)

    def to_dict(self) -> dict:
        # Written only for tempered windows: untempered stores and sealed
        # artifacts keep the bytes they had before the flag existed.
        cut = {"temper_truncated": self.temper_truncated} if self.tempered \
            else {}
        return {
            "n_particles": self.n_particles,
            "ess": self.ess,
            "ess_fraction": self.ess_fraction,
            "entropy": self.entropy,
            "entropy_fraction": self.entropy_fraction,
            "max_weight": self.max_weight,
            "unique_ancestors": self.unique_ancestors,
            "log_evidence": self.log_evidence,
            "particle_steps": self.particle_steps,
            "temper_schedule": list(self.temper_schedule),
            "temper_stage_ess": list(self.temper_stage_ess),
            **cut,
            "shard_failures": self.shard_failures,
            "shard_failure_causes": list(self.shard_failure_causes),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WindowDiagnostics":
        return cls(n_particles=int(d["n_particles"]), ess=float(d["ess"]),
                   ess_fraction=float(d["ess_fraction"]),
                   entropy=float(d["entropy"]),
                   entropy_fraction=float(d["entropy_fraction"]),
                   max_weight=float(d["max_weight"]),
                   unique_ancestors=int(d["unique_ancestors"]),
                   log_evidence=float(d["log_evidence"]),
                   particle_steps=int(d.get("particle_steps", 0)),
                   temper_schedule=tuple(
                       float(b) for b in d.get("temper_schedule", ())),
                   temper_stage_ess=tuple(
                       float(e) for e in d.get("temper_stage_ess", ())),
                   temper_truncated=bool(d.get("temper_truncated", False)),
                   shard_failures=int(d.get("shard_failures", 0)),
                   shard_failure_causes=tuple(
                       str(c) for c in d.get("shard_failure_causes", ())))


def compute_diagnostics(log_weights: np.ndarray, normalized: np.ndarray,
                        unique_ancestors: int, *,
                        particle_steps: int = 0,
                        temper_schedule: Sequence[float] = (),
                        temper_stage_ess: Sequence[float] = ()
                        ) -> WindowDiagnostics:
    """Assemble diagnostics from a window's weight vectors."""
    lw = np.asarray(log_weights, dtype=np.float64)
    w = np.asarray(normalized, dtype=np.float64)
    if lw.shape != w.shape:
        raise ValueError("log_weights and normalized weights must align")
    if len(temper_schedule) != len(temper_stage_ess):
        raise ValueError("temper_schedule and temper_stage_ess must align")
    n = int(w.size)
    ess = effective_sample_size(w)
    entropy = weight_entropy(w)
    # A single-particle ensemble is uniform over its only state — the maximum
    # attainable entropy — so its fraction is 1.0, not 0.0 ("collapsed").
    entropy_fraction = float(entropy / np.log(n)) if n > 1 else 1.0
    log_evidence = logsumexp(lw) - float(np.log(n))
    return WindowDiagnostics(
        n_particles=n,
        ess=float(ess),
        ess_fraction=float(ess / n),
        entropy=float(entropy),
        entropy_fraction=entropy_fraction,
        max_weight=float(np.max(w)),
        unique_ancestors=int(unique_ancestors),
        log_evidence=float(log_evidence),
        particle_steps=int(particle_steps),
        temper_schedule=tuple(float(b) for b in temper_schedule),
        temper_stage_ess=tuple(float(e) for e in temper_stage_ess),
    )

