"""Grid posterior baseline (brute-force reference).

Evaluates the window likelihood on a regular (theta, rho) lattice with
replicated simulations per node.  Exponential in dimension, so only viable
for the paper's 2-parameter setting — which is exactly what makes it a
useful reference: on small problems the grid posterior is a near-exact
answer the Monte-Carlo methods can be validated against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.observation import ObservationModel
from ..core.weights import logsumexp
from ..data.sources import ObservationSet
from ..hpc.executor import Executor, SerialExecutor
from ..hpc.sharding import resolve_shard_layout, simulate_members
from ..seir.parameters import DiseaseParameters
from ..seir.seeding import SeedSequenceBank, register_ancillary_purpose

__all__ = ["GridPosterior", "grid_posterior"]

# Lattice evaluation only randomises the bias model; registered clear of
# both the calibrator (0..3) and MCMC (20..21) blocks.
_PURPOSE_GRID_BIAS = register_ancillary_purpose(
    "grid_bias", 30, description="bias-model draws at lattice nodes")


@dataclass(frozen=True)
class GridPosterior:
    """Normalised posterior mass on a (theta, rho) lattice."""

    theta_values: np.ndarray
    rho_values: np.ndarray
    log_likelihood: np.ndarray  # shape (n_theta, n_rho)
    posterior: np.ndarray       # normalised, same shape

    def marginal_theta(self) -> np.ndarray:
        return self.posterior.sum(axis=1)

    def marginal_rho(self) -> np.ndarray:
        return self.posterior.sum(axis=0)

    def mode(self) -> tuple[float, float]:
        """(theta, rho) at the posterior mode."""
        i, j = np.unravel_index(int(np.argmax(self.posterior)),
                                self.posterior.shape)
        return float(self.theta_values[i]), float(self.rho_values[j])

    def mean_theta(self) -> float:
        return float(self.marginal_theta() @ self.theta_values)

    def mean_rho(self) -> float:
        return float(self.marginal_rho() @ self.rho_values)


def grid_posterior(observations: ObservationSet,
                   base_params: DiseaseParameters,
                   observation_model: ObservationModel,
                   *,
                   start_day: int,
                   end_day: int,
                   theta_grid: np.ndarray,
                   rho_grid: np.ndarray,
                   n_replicates: int = 5,
                   engine_options: dict | None = None,
                   base_seed: int = 20240215,
                   executor: Executor | None = None) -> GridPosterior:
    """Evaluate the posterior over a lattice (uniform lattice prior).

    The likelihood at each node is the log-mean-exp over ``n_replicates``
    common-seed trajectories — the same pseudo-marginal estimate the other
    methods use, so comparisons are apples-to-apples.  Every node's
    replicates are simulated from day 0 in one sharded batched dispatch
    (:func:`~repro.hpc.sharding.simulate_members`).
    """
    theta_values = np.asarray(theta_grid, dtype=np.float64)
    rho_values = np.asarray(rho_grid, dtype=np.float64)
    if theta_values.ndim != 1 or rho_values.ndim != 1:
        raise ValueError("grids must be 1-d arrays")
    executor = executor or SerialExecutor()
    bank = SeedSequenceBank(base_seed)
    rng_bias = bank.ancillary_generator(_PURPOSE_GRID_BIAS)
    seeds = bank.common_replicate_seeds(n_replicates)
    window_obs = observations.window(start_day, end_day)

    # Simulation depends on theta only; rho enters through the bias model.
    node_params = [base_params.with_updates(transmission_rate=float(theta))
                   for theta in theta_values]
    outputs = simulate_members(
        executor, [params for params in node_params for _ in seeds],
        seeds * len(node_params), end_day=end_day, start_day=0,
        engine_options=engine_options, **resolve_shard_layout(executor))

    n_theta, n_rho = len(theta_values), len(rho_values)
    log_lik = np.empty((n_theta, n_rho))
    for i in range(n_theta):
        trajectories = outputs[i * n_replicates:(i + 1) * n_replicates]
        for j, rho in enumerate(rho_values):
            reps = np.array([
                observation_model.loglik(window_obs, traj, float(rho), rng_bias)
                for traj in trajectories])
            log_lik[i, j] = logsumexp(reps) - np.log(reps.size)

    flat = log_lik.reshape(-1)
    log_norm = logsumexp(flat)
    posterior = np.exp(log_lik - log_norm)
    posterior /= posterior.sum()
    return GridPosterior(theta_values=theta_values, rho_values=rho_values,
                         log_likelihood=log_lik, posterior=posterior)
