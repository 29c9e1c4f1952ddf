"""Single-shot (non-sequential) importance sampling baseline.

The contrast that motivates the paper's sequential scheme: draw all
parameters once, simulate the *entire* horizon, and weight against all
observations jointly.  With time-varying true parameters a single constant
theta cannot track every window, so weights collapse onto the least-bad
draws — the degeneracy the sequential scheme avoids by re-adapting per
window.  ``benchmarks/bench_ablation_sequential.py`` compares ESS fractions
at matched simulation budgets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.diagnostics import WindowDiagnostics, compute_diagnostics
from ..core.observation import ObservationModel
from ..core.particle import Particle, ParticleEnsemble
from ..core.priors import IndependentProduct
from ..core.resampling import get_resampler
from ..core.smc import BIAS_PARAM
from ..core.weights import normalize_log_weights
from ..data.sources import ObservationSet
from ..hpc.executor import Executor, SerialExecutor
from ..hpc.sharding import resolve_shard_layout, simulate_members
from ..seir.parameters import DiseaseParameters, parameter_columns
from ..seir.seeding import SeedSequenceBank, register_ancillary_purpose

__all__ = ["SingleShotResult", "single_shot_importance_sampling"]

# One-shot IS mirrors the calibrator's first window, so it deliberately
# draws from the *same* ancillary purpose streams.  Re-registering the
# shared (name, tag) pairs is idempotent — and means that if the calibrator
# ever re-keyed them, importing this module would raise instead of the two
# methods silently diverging.
_PURPOSE_PRIOR = register_ancillary_purpose("smc_prior", 0)
_PURPOSE_BIAS = register_ancillary_purpose("smc_bias", 1)
_PURPOSE_RESAMPLE = register_ancillary_purpose("smc_resample", 2)


@dataclass(frozen=True)
class SingleShotResult:
    """Posterior and diagnostics of a one-shot IS run."""

    posterior: ParticleEnsemble
    diagnostics: WindowDiagnostics
    weighted: ParticleEnsemble

    def summary(self) -> dict:
        out: dict = {"ess_fraction": self.diagnostics.ess_fraction}
        for name in self.posterior.param_names:
            out[name] = {
                "mean": self.posterior.weighted_mean(name),
                "ci90": self.posterior.credible_interval(name, 0.9),
            }
        return out


def single_shot_importance_sampling(
        observations: ObservationSet,
        base_params: DiseaseParameters,
        prior: IndependentProduct,
        observation_model: ObservationModel,
        *,
        start_day: int,
        end_day: int,
        n_parameter_draws: int = 500,
        n_replicates: int = 5,
        resample_size: int = 500,
        engine_options: dict | None = None,
        param_map: dict[str, str] | None = None,
        base_seed: int = 20240215,
        executor: Executor | None = None) -> SingleShotResult:
    """Calibrate the whole horizon ``[start_day, end_day)`` in one IS pass.

    Mirrors the first-window step of the sequential calibrator but scores
    every observed day at once.  Parameters are held constant across the
    horizon — exactly the restriction that hurts when the truth varies.
    Trajectories are simulated from day 0 in one sharded batched dispatch
    (:func:`~repro.hpc.sharding.simulate_members`).
    """
    executor = executor or SerialExecutor()
    param_map = dict(param_map or {"theta": "transmission_rate"})
    bank = SeedSequenceBank(base_seed)
    rng_prior = bank.ancillary_generator(_PURPOSE_PRIOR)
    rng_bias = bank.ancillary_generator(_PURPOSE_BIAS)
    rng_resample = bank.ancillary_generator(_PURPOSE_RESAMPLE)

    draws = prior.sample(n_parameter_draws, rng_prior)
    seeds = bank.common_replicate_seeds(n_replicates)
    window_obs = observations.window(start_day, end_day)

    members = [({name: float(draws[name][i]) for name in prior.names}, seed)
               for i in range(n_parameter_draws) for seed in seeds]
    columns = parameter_columns(
        base_params, len(members),
        {fld: np.repeat(draws[name], n_replicates)
         for name, fld in param_map.items()})
    outputs = simulate_members(
        executor, columns, [seed for _draw, seed in members],
        end_day=end_day, start_day=0, engine_options=engine_options,
        **resolve_shard_layout(executor)).trajectories()

    log_weights = np.empty(len(members))
    particles = []
    for k, ((draw, seed), trajectory) in enumerate(zip(members, outputs)):
        ll = observation_model.loglik(window_obs, trajectory,
                                      draw[BIAS_PARAM], rng_bias)
        log_weights[k] = ll
        particles.append(Particle(params=draw, seed=seed, log_weight=ll,
                                  segment=trajectory.window(start_day, end_day),
                                  history=trajectory))
    weighted = ParticleEnsemble(particles)
    normalized = normalize_log_weights(log_weights)
    indices = get_resampler("multinomial")(normalized, resample_size, rng_resample)
    posterior = weighted.select(indices)
    diagnostics = compute_diagnostics(log_weights, normalized,
                                      posterior.unique_ancestors())
    return SingleShotResult(posterior=posterior, diagnostics=diagnostics,
                            weighted=weighted)
