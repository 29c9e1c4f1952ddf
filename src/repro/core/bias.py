"""The binomial reporting-bias model (paper section IV-A, eq. 2).

Observed counts are modelled as a binomial thinning of the true simulated
counts:

    eta_obs_t ~ Binomial(eta_t(theta, s), rho),    0 < rho < 1

so a particle's *simulated observed* series depends on ``(theta, s, rho)``.
The module offers two evaluation modes:

``sample``
    Draw the binomial (the paper's construction; keeps the likelihood a
    proper stochastic function of rho and makes the weight an unbiased
    pseudo-marginal estimate).
``mean``
    Use the conditional expectation ``rho * eta_t`` (deterministic; cheaper
    and lower-variance, at the cost of ignoring thinning noise).

Ensemble draw-order contract (``sample`` mode)
----------------------------------------------
:meth:`BinomialBiasModel.apply_batch` issues **one** ``rng.binomial`` call
over the full ``(n_particles, n_days)`` count matrix.  NumPy fills
broadcast variate arrays in C order, so the generator stream is consumed
*particle-major, day-minor*: all of particle 0's days, then all of
particle 1's days, and so on.  When an observation model carries several
biased sources, :meth:`~repro.core.observation.ObservationModel.loglik_ensemble`
thins them *source-major* in observation-set order (every particle for
source A, then every particle for source B), each over exactly the
observed window's days.  This is the canonical order: a fixed
``base_seed`` makes weighting bit-reproducible.  How the per-particle
reference in :mod:`repro.testing.weighting` relates to it is stated there.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BinomialBiasModel"]


class BinomialBiasModel:
    """Binomial thinning bias with a scalar reporting probability.

    The paper assumes rho is constant "within a relatively shorter time
    window" (end of section IV-A); the sequential scheme re-estimates it per
    window, which is how the time variation is recovered.
    """

    def __init__(self, mode: str = "sample") -> None:
        if mode not in ("sample", "mean"):
            raise ValueError(f"mode must be 'sample' or 'mean', got {mode!r}")
        self.mode = mode

    def apply_batch(self, true_counts: np.ndarray, rho: np.ndarray,
                    rng: np.random.Generator | None = None) -> np.ndarray:
        """Map true counts to simulated observed counts, one row per particle.

        One binomial call thins the whole ensemble; see the module docstring
        for the draw-order contract that makes this reproducible.

        Parameters
        ----------
        true_counts:
            ``(n_particles, n_days)`` matrix of non-negative counts
            (rounded to integers for sampling).
        rho:
            Length ``n_particles`` vector of reporting probabilities in
            (0, 1], one per particle (broadcast across the day axis);
            rho = 0 is rejected because a zero reporting rate makes every
            observation identically zero and the likelihood degenerate.
        rng:
            Required in ``sample`` mode.
        """
        counts = np.asarray(true_counts, dtype=np.float64)
        if counts.ndim != 2:
            raise ValueError(
                f"true_counts must be (n_particles, n_days), got shape {counts.shape}")
        rho_arr = np.asarray(rho, dtype=np.float64)
        if rho_arr.shape != (counts.shape[0],):
            raise ValueError(
                f"rho must have one entry per particle: expected shape "
                f"({counts.shape[0]},), got {rho_arr.shape}")
        if np.any((rho_arr <= 0.0) | (rho_arr > 1.0)):
            raise ValueError("every rho must be in (0, 1]")
        if np.any(counts < 0):
            raise ValueError("true counts must be non-negative")
        if self.mode == "mean":
            return rho_arr[:, None] * counts
        if rng is None:
            raise ValueError("sample mode requires an rng")
        n = np.rint(counts).astype(np.int64)
        return rng.binomial(n, rho_arr[:, None]).astype(np.float64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BinomialBiasModel(mode={self.mode!r})"
