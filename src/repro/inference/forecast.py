"""Forecasting beyond the last calibrated window.

The paper motivates the framework as producing "plausible epidemic
trajectories/histories given the observed data" (section VI) for
forward-looking decision support.  Forecasting here is exactly the
checkpoint-restart machinery pointed at the future: every final-posterior
particle is restarted from its stored state with a fresh seed (parameters
held at their posterior values) and simulated ``horizon_days`` forward; the
ensemble of continuations is the posterior predictive.

The restart runs on the **sharded batched path**: the posterior's restart
rows, theta column included, are tiled once per continuation and advanced
under their one parameter record by the
:class:`~repro.seir.batch_engine.BatchedBinomialLeapEngine` across the
executor's workers (one :class:`~repro.hpc.sharding.GroupSpec` through
:func:`repro.hpc.sharding.simulate_groups`, the calibrator's own dispatch
front door), each shard on a stream keyed by its slice of the forecast
seed vector (mixed in one vectorised pass) — so a forecast is
bit-reproducible given ``(base_seed, shard layout)``.  No per-member
parameter, seed or trajectory object is built: the ribbons read the
stacked batch.  The
per-particle restart survives only as the test oracle
:func:`repro.testing.restart_oracle`.

Between windows the streaming service needs no separate pass:
:func:`forecast_from_cloud` reads the next window's jittered proposal
cloud, which the calibrator simulates anyway and weighs once the window's
observations arrive — the particle filter's one-step predictive.  Its
parameters drift under the window jitter (the paper's model of a moving
theta) instead of being held, and only a horizon longer than the next
window continues the cloud, on the forecast stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..core.particle import ParticleEnsemble
from ..core.posterior import TrajectoryRibbon, trajectory_ribbon
from ..data.sources import CASES
from ..hpc.executor import Executor, SerialExecutor
from ..hpc.sharding import GroupSpec, resolve_shard_layout, simulate_groups
from ..seir.batch_engine import BatchTrajectory
from ..seir.checkpoint import StackedLeapState
from ..seir.seeding import mix_seeds, register_stream_tag

__all__ = ["Forecast", "forecast_from_posterior", "forecast_from_cloud",
           "forecast_scenarios"]

# Forecast continuation seeds occupy their own registered bank stream: the
# registry raises at import time if another consumer ever claims tag 9100,
# and the tag rides in ``mix_seed``'s reserved position right after the base
# seed so forecast seeds can never alias the calibrator's window streams.
_FORECAST_STREAM = register_stream_tag(
    "forecast", 9100, description="posterior-predictive continuation seeds")


@dataclass(frozen=True)
class Forecast:
    """Forecast trajectory ensemble: ``batch`` row ``rep * n + j``
    continues posterior particle ``j`` for the ``rep``-th time
    (:func:`forecast_from_posterior`), or row ``i`` is cloud member ``i``
    (:func:`forecast_from_cloud`)."""

    start_day: int
    horizon_days: int
    batch: BatchTrajectory

    def ribbon(self, channel: str = CASES,
               quantiles: Sequence[float] = (0.05, 0.25, 0.5, 0.75, 0.95),
               ) -> TrajectoryRibbon:
        """Per-day forecast quantile bands."""
        return trajectory_ribbon(self.batch, channel, quantiles)

    def __len__(self) -> int:
        return self.batch.n_particles


def _forecast_seeds(posterior: ParticleEnsemble, base_seed: int,
                   n_per_particle: int) -> np.ndarray:
    """Continuation seeds, replicate-major: entry ``rep * n + j`` restarts
    particle ``j`` for the ``rep``-th time."""
    seeds = posterior.seeds()
    n = len(seeds)
    return mix_seeds(base_seed, _FORECAST_STREAM,
                     np.repeat(np.arange(n_per_particle), n),
                     np.tile(np.arange(n), n_per_particle),
                     np.tile(seeds, n_per_particle))


def _restart_spec(state: StackedLeapState, seeds: np.ndarray) -> GroupSpec:
    """Every row of ``state`` restarted on its new seed, under the state's
    parameter record and theta column."""
    if state.params is None or state.thetas is None:
        raise ValueError("restart rows carry no parameters")
    return GroupSpec(params=state.params, seeds=seeds, thetas=state.thetas,
                     state=state)


def forecast_from_posterior(posterior: ParticleEnsemble, horizon_days: int,
                            executor: Executor | None = None,
                            base_seed: int = 0,
                            n_per_particle: int = 1, *,
                            shard_size: int | None = None,
                            n_shards: int | str = "auto") -> Forecast:
    """Simulate the posterior ensemble ``horizon_days`` past its checkpoints.

    Parameters
    ----------
    posterior:
        A (typically final-window) posterior ensemble carrying restart
        columns (what the calibrator produces); one without checkpoints
        raises ``ValueError``.
    horizon_days:
        Days to simulate beyond the checkpoint day.
    executor:
        Parallel backend (forecasting is embarrassingly parallel too);
        shards are fanned across it.
    base_seed:
        Entropy for the fresh continuation seeds.
    n_per_particle:
        Stochastic continuations per particle (forecast spread includes
        simulator noise, not just parameter uncertainty).
    shard_size / n_shards:
        Shard layout (see :class:`~repro.core.smc.SMCConfig`);
        ``"auto"`` targets one shard per executor worker.
    """
    if horizon_days < 1:
        raise ValueError("horizon_days must be >= 1")
    if n_per_particle < 1:
        raise ValueError("n_per_particle must be >= 1")
    executor = executor or SerialExecutor()
    layout = resolve_shard_layout(executor, shard_size=shard_size,
                                  n_shards=n_shards)

    restart = posterior.restart
    if restart is None:
        raise ValueError("posterior particles carry no checkpoints")
    tiled = restart.take(np.tile(np.arange(len(posterior)), n_per_particle))
    seeds = _forecast_seeds(posterior, base_seed, n_per_particle)
    [(batch, _)] = simulate_groups(
        executor, [_restart_spec(tiled, seeds)],
        end_day=restart.day + horizon_days, return_state=False, **layout)
    return Forecast(start_day=restart.day, horizon_days=horizon_days,
                    batch=batch)


def forecast_from_cloud(cloud: ParticleEnsemble, horizon_days: int,
                        executor: Executor | None = None,
                        base_seed: int = 0, *,
                        shard_size: int | None = None,
                        n_shards: int | str = "auto") -> Forecast:
    """The next window's simulated proposal cloud, read as a forecast.

    ``cloud`` is that window's unweighted ensemble (its segments start
    where the last calibrated window ends).  A horizon no longer than the
    window is its first ``horizon_days`` days; a longer one continues every
    member from its end-of-window restart state for the remaining days on
    the forecast stream, seeded by ``(base_seed, member index, member
    seed)``, and joins the two parts.  One row per member.
    """
    if horizon_days < 1:
        raise ValueError("horizon_days must be >= 1")
    segments = cloud.trajectory_batch("segment")
    start = segments.start_day
    end = start + horizon_days
    if end <= segments.end_day:
        return Forecast(start_day=start, horizon_days=horizon_days,
                        batch=segments.window(start, end))
    restart = cloud.restart
    if restart is None:
        raise ValueError("cloud members carry no end-of-window state")
    executor = executor or SerialExecutor()
    seeds = _forecast_seeds(cloud, base_seed, 1)
    [(tail, _)] = simulate_groups(
        executor, [_restart_spec(restart, seeds)], end_day=end,
        return_state=False,
        **resolve_shard_layout(executor, shard_size=shard_size,
                               n_shards=n_shards))
    return Forecast(start_day=start, horizon_days=horizon_days,
                    batch=segments.extended_by(tail))


def forecast_scenarios(posteriors: "Mapping[str, ParticleEnsemble]",
                       horizon_days: int,
                       executor: Executor | None = None,
                       base_seed: int = 0,
                       n_per_particle: int = 1, *,
                       shard_size: int | None = None,
                       n_shards: int | str = "auto") -> dict[str, Forecast]:
    """Fan :func:`forecast_from_posterior` out over per-scenario posteriors.

    ``posteriors`` maps scenario name to a checkpoint-carrying posterior
    ensemble — typically ``{r.scenario: r.final_posterior for r in
    sweep_result}`` from :func:`~repro.inference.api.calibrate_scenarios`.
    Every scenario forecasts under **common random numbers** (the same
    ``base_seed``, hence the same continuation seed vector for equal
    posterior seed lists), so cross-scenario forecast differences estimate
    scenario effects, not Monte Carlo noise; pass a distinct ``base_seed``
    per call for independent draws instead.  Scenarios are processed in
    sorted-name (canonical) order sharing one executor; the returned dict
    preserves that order.
    """
    executor = executor or SerialExecutor()
    return {name: forecast_from_posterior(
        posteriors[name], horizon_days, executor=executor,
        base_seed=base_seed, n_per_particle=n_per_particle,
        shard_size=shard_size, n_shards=n_shards)
        for name in sorted(posteriors)}
