"""Pseudo-marginal random-walk Metropolis baseline.

The classical alternative the paper positions itself against: a Markov chain
over ``(theta, rho)`` whose likelihood is estimated by simulating fresh
trajectories at each proposal (particle-MCMC in its simplest,
single-trajectory-average form; cf. Flury & Shephard 2011 in the paper's
references).  Unlike SIS it is inherently serial — each step depends on the
previous — which is exactly the paper's computational argument for the
embarrassingly parallel sequential scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.observation import ObservationModel
from ..core.priors import IndependentProduct
from ..core.smc import BIAS_PARAM
from ..core.weights import logsumexp
from ..data.sources import ObservationSet
from ..seir.parameters import DiseaseParameters
from ..seir.seeding import SeedSequenceBank, register_ancillary_purpose
from ..seir.tauleap import BinomialLeapEngine

__all__ = ["MCMCResult", "random_walk_metropolis"]

# The chain's own purpose streams, registered well clear of the
# calibrator's 0..3 block (values pinned by regression test).
_PURPOSE_MCMC_CHAIN = register_ancillary_purpose(
    "mcmc_chain", 20, description="proposal and initial-state draws")
_PURPOSE_MCMC_BIAS = register_ancillary_purpose(
    "mcmc_bias", 21, description="bias-model draws in likelihood estimates")


@dataclass(frozen=True)
class MCMCResult:
    """Chain draws and acceptance bookkeeping."""

    samples: dict[str, np.ndarray]
    log_likelihoods: np.ndarray
    acceptance_rate: float
    n_burn_in: int

    def posterior_samples(self, name: str) -> np.ndarray:
        """Post-burn-in draws of one parameter."""
        return self.samples[name][self.n_burn_in:]

    def posterior_mean(self, name: str) -> float:
        return float(self.posterior_samples(name).mean())

    def credible_interval(self, name: str, level: float = 0.9,
                          ) -> tuple[float, float]:
        alpha = (1.0 - level) / 2.0
        draws = self.posterior_samples(name)
        return (float(np.quantile(draws, alpha)),
                float(np.quantile(draws, 1.0 - alpha)))


def _estimate_loglik(draw: dict[str, float], base_params: DiseaseParameters,
                     observation_model: ObservationModel,
                     window_obs: ObservationSet, param_map: dict[str, str],
                     seeds: list[int], end_day: int, start_day: int,
                     rng_bias: np.random.Generator,
                     engine_options: dict) -> float:
    """Monte-Carlo likelihood estimate averaged over replicate seeds."""
    params = base_params.with_updates(
        **{fld: draw[name] for name, fld in param_map.items()})
    logliks = []
    for seed in seeds:
        trajectory = BinomialLeapEngine(params, seed,
                                        **engine_options).run_until(end_day)
        logliks.append(observation_model.loglik(
            window_obs, trajectory, draw[BIAS_PARAM], rng_bias))
    # Average in probability space: log mean exp (unbiased pseudo-marginal).
    arr = np.asarray(logliks)
    return float(logsumexp(arr) - np.log(arr.size))


def random_walk_metropolis(observations: ObservationSet,
                           base_params: DiseaseParameters,
                           prior: IndependentProduct,
                           observation_model: ObservationModel,
                           *,
                           start_day: int,
                           end_day: int,
                           n_steps: int = 200,
                           n_burn_in: int | None = None,
                           n_replicates: int = 3,
                           step_sizes: dict[str, float] | None = None,
                           engine_options: dict | None = None,
                           param_map: dict[str, str] | None = None,
                           base_seed: int = 20240215) -> MCMCResult:
    """Random-walk Metropolis over the prior's parameters.

    Gaussian proposals (reflected into the prior support via prior logpdf
    rejection), pseudo-marginal likelihood estimated with ``n_replicates``
    common seeds per evaluation.
    """
    if n_steps < 2:
        raise ValueError("n_steps must be >= 2")
    n_burn_in = n_burn_in if n_burn_in is not None else n_steps // 4
    if not 0 <= n_burn_in < n_steps:
        raise ValueError("n_burn_in must be in [0, n_steps)")
    param_map = dict(param_map or {"theta": "transmission_rate"})
    engine_options = dict(engine_options or {})
    step_sizes = dict(step_sizes or {})

    bank = SeedSequenceBank(base_seed)
    rng = bank.ancillary_generator(_PURPOSE_MCMC_CHAIN)
    rng_bias = bank.ancillary_generator(_PURPOSE_MCMC_BIAS)
    seeds = bank.common_replicate_seeds(n_replicates)
    window_obs = observations.window(start_day, end_day)

    names = list(prior.names)
    current = {name: float(prior.marginal(name).sample(1, rng)[0])
               for name in names}
    current_ll = _estimate_loglik(current, base_params, observation_model,
                                  window_obs, param_map, seeds, end_day,
                                  start_day, rng_bias, engine_options)
    current_lp = float(np.sum(prior.logpdf({k: np.array([v])
                                            for k, v in current.items()})))

    chains = {name: np.empty(n_steps) for name in names}
    lls = np.empty(n_steps)
    accepted = 0
    for step in range(n_steps):
        proposal = {}
        for name in names:
            lo, hi = prior.marginal(name).support
            default_step = 0.05 * (hi - lo) if np.isfinite(hi - lo) else 0.1
            scale = step_sizes.get(name, default_step)
            proposal[name] = current[name] + float(rng.normal(0.0, scale))
        prop_lp = float(np.sum(prior.logpdf({k: np.array([v])
                                             for k, v in proposal.items()})))
        if np.isfinite(prop_lp):
            prop_ll = _estimate_loglik(proposal, base_params, observation_model,
                                       window_obs, param_map, seeds, end_day,
                                       start_day, rng_bias, engine_options)
            log_alpha = (prop_ll + prop_lp) - (current_ll + current_lp)
            if np.log(rng.uniform()) < log_alpha:
                current, current_ll, current_lp = proposal, prop_ll, prop_lp
                accepted += 1
        for name in names:
            chains[name][step] = current[name]
        lls[step] = current_ll

    return MCMCResult(samples=chains, log_likelihoods=lls,
                      acceptance_rate=accepted / n_steps, n_burn_in=n_burn_in)
