"""Multi-core scaling benchmark of the sharded batched simulation layer.

Two claims of the sharding PR are measured here:

* **Sharded window simulation** — one calibration window (14 days by
  default) advanced for a particle cloud through ``simulate_groups``:
  the single-process batched engine (one shard, serial executor — PR 2's
  fast path) against the same cloud split into ``n`` shards fanned across a
  warmed :class:`~repro.hpc.executor.ProcessExecutor`.  The headline
  ``speedup`` per ensemble size is the best shard count's wall-clock gain
  over the single-process path; the target is >= 2x at 10,000 particles
  with >= 4 workers (only assessable on a >= 4-core host — ``cpu_count``
  is recorded so trend checks can judge the baseline's provenance).
* **Batched forecasting** — the per-particle scalar restart oracle
  (:func:`repro.testing.restart_oracle`, the same restart rows and seeds a
  forecast restarts) vs ``forecast_from_posterior``'s sharded batched path
  (both single-process, so the ratio isolates batching, not parallelism).

Emits ``BENCH_sharding.json`` with per-path timings and speedups
(``benchmarks/check_trend.py`` gates every ``speedup`` entry in CI).

Run standalone (``python benchmarks/bench_sharding.py``) or under
pytest-benchmark (``pytest benchmarks/bench_sharding.py``).
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

import numpy as np

from _bench_util import time_best, write_payload
from repro.core import ParticleEnsemble
from repro.hpc import (Executor, GroupSpec, ProcessExecutor, SerialExecutor,
                       simulate_groups)
from repro.inference import forecast_from_posterior
from repro.inference.forecast import _forecast_seeds
from repro.seir import (BatchedBinomialLeapEngine, DiseaseParameters,
                        StackedLeapState)
from repro.testing import restart_oracle

DEFAULT_SIZES = (2_000, 10_000)
DEFAULT_SHARDS = (1, 2, 4, 8)
DEFAULT_DAYS = 14
STEPS_PER_DAY = 4
TARGET = {"n_particles": 10_000, "min_speedup": 2.0, "min_workers": 4}


def _seeds_and_thetas(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.Generator(np.random.PCG64(seed))
    seeds = rng.integers(0, 2**40, size=n, dtype=np.int64)
    thetas = rng.uniform(0.1, 0.5, size=n)
    return seeds, thetas


def _warm(_x: int) -> int:
    """Trivial picklable task used to pre-spawn pool workers."""
    return _x


def run_window(executor: Executor, params: DiseaseParameters,
               seeds: np.ndarray, thetas: np.ndarray, n_days: int,
               n_shards: int) -> float:
    """One sharded window simulation; returns mean total infections."""
    spec = GroupSpec(params=params, seeds=seeds, thetas=thetas, start_day=0)
    [(batch, _)] = simulate_groups(
        executor, [spec], end_day=n_days,
        engine_options={"steps_per_day": STEPS_PER_DAY}, n_shards=n_shards)
    return float(batch.infections.sum(axis=1).mean())


def make_posterior(params: DiseaseParameters, n: int, seed: int,
                   checkpoint_day: int = 10) -> ParticleEnsemble:
    """A synthetic posterior with restart state to forecast from."""
    seeds, thetas = _seeds_and_thetas(n, seed)
    engine = BatchedBinomialLeapEngine(params, seeds, thetas=thetas,
                                       steps_per_day=STEPS_PER_DAY)
    engine.run_until(checkpoint_day)
    restart = StackedLeapState(
        day=engine.day, steps_per_day=engine.steps_per_day,
        counts=engine.counts, cum_infections=engine.cumulative_infections,
        cum_deaths=engine.cumulative_deaths, seeds=seeds, params=params,
        thetas=thetas)
    return ParticleEnsemble.from_columns(
        {"theta": thetas, "rho": np.full(n, 0.7)}, seeds, restart=restart)


def run_forecast_bench(params: DiseaseParameters, n_particles: int,
                       horizon: int, seed: int, repeats: int) -> dict:
    """Scalar-oracle vs batched forecast timings (both single-process)."""
    posterior = make_posterior(params, n_particles, seed)
    seeds = _forecast_seeds(posterior, seed, 1)
    end_day = posterior.restart.day + horizon
    scalar_s, scalar_batch = time_best(
        lambda: restart_oracle(posterior.restart, seeds, end_day), repeats)
    batched_s, batched_fc = time_best(
        lambda: forecast_from_posterior(posterior, horizon, base_seed=seed),
        repeats)
    return {
        "n_particles": n_particles,
        "horizon_days": horizon,
        "scalar_seconds": scalar_s,
        "batched_seconds": batched_s,
        "speedup": scalar_s / batched_s,
        "scalar_mean_total_infections": float(
            scalar_batch.infections.sum(axis=1).mean()),
        "batched_mean_total_infections": float(
            batched_fc.batch.infections.sum(axis=1).mean()),
    }


def run_sharding_bench(sizes=DEFAULT_SIZES, shard_counts=DEFAULT_SHARDS,
                       n_days: int = DEFAULT_DAYS, workers: int | None = None,
                       repeats: int = 1, seed: int = 20240215,
                       population: int = 2_700_000,
                       forecast_particles: int = 2_000) -> dict:
    """Time single-process vs sharded window simulation; return the payload."""
    cpu = os.cpu_count() or 1
    workers = workers or min(max(shard_counts), cpu)
    params = DiseaseParameters(population=population,
                               initial_exposed=max(1, population // 5400))
    payload: dict = {
        "benchmark": "sharded_simulation",
        "n_days": n_days,
        "steps_per_day": STEPS_PER_DAY,
        "population": params.population,
        "repeats": repeats,
        "cpu_count": cpu,
        "workers": workers,
        "target": dict(TARGET),
        "sizes": {},
    }
    serial = SerialExecutor()
    with ProcessExecutor(max_workers=workers) as pool:
        pool.map(_warm, list(range(workers * 2)))  # pre-spawn workers
        for n in sizes:
            seeds, thetas = _seeds_and_thetas(n, seed)
            single_s, single_mean = time_best(
                lambda: run_window(serial, params, seeds, thetas, n_days, 1),
                repeats)
            entry: dict = {"single_process_seconds": single_s,
                           "single_process_mean_total_infections": single_mean,
                           "shards": {}}
            best = (0.0, None)
            for k in shard_counts:
                sharded_s, sharded_mean = time_best(
                    lambda: run_window(pool, params, seeds, thetas, n_days, k),
                    repeats)
                ratio = single_s / sharded_s
                entry["shards"][str(k)] = {
                    "seconds": sharded_s,
                    "speedup": ratio,
                    "mean_total_infections": sharded_mean,
                }
                if ratio > best[0]:
                    best = (ratio, k)
            entry["speedup"] = best[0]
            entry["best_n_shards"] = best[1]
            payload["sizes"][str(n)] = entry
    payload["forecast"] = run_forecast_bench(params, forecast_particles,
                                             n_days, seed, repeats)
    return payload


def test_sharding_throughput(benchmark, output_dir):
    """pytest-benchmark entry point; target asserted on capable hosts only."""
    from _bench_util import once

    cpu = os.cpu_count() or 1
    payload = once(benchmark, lambda: run_sharding_bench(
        sizes=(1000,), shard_counts=(1, min(4, cpu)),
        workers=min(4, cpu), population=500_000, forecast_particles=500))
    write_payload(payload, output_dir / "BENCH_sharding.json")
    print("\nSharding bench:", json.dumps(payload, indent=2))
    assert payload["forecast"]["speedup"] > 1.5
    np.testing.assert_allclose(
        payload["forecast"]["batched_mean_total_infections"],
        payload["forecast"]["scalar_mean_total_infections"], rtol=0.25)
    if cpu >= TARGET["min_workers"]:
        assert payload["sizes"]["1000"]["speedup"] > 1.0


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=list(DEFAULT_SIZES))
    parser.add_argument("--shards", type=int, nargs="+",
                        default=list(DEFAULT_SHARDS))
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--n-days", type=int, default=DEFAULT_DAYS)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--seed", type=int, default=20240215)
    parser.add_argument("--population", type=int, default=2_700_000)
    parser.add_argument("--forecast-particles", type=int, default=2_000)
    parser.add_argument("--output", type=Path,
                        default=Path("BENCH_sharding.json"))
    args = parser.parse_args(argv)
    payload = run_sharding_bench(tuple(args.sizes), tuple(args.shards),
                                 args.n_days, args.workers, args.repeats,
                                 args.seed, args.population,
                                 args.forecast_particles)
    write_payload(payload, args.output)
    for n, stats in payload["sizes"].items():
        line = " | ".join(
            f"{k} shard(s) {s['seconds']:.3f}s ({s['speedup']:.2f}x)"
            for k, s in stats["shards"].items())
        print(f"{int(n):>6} particles: single-process "
              f"{stats['single_process_seconds']:.3f}s | {line}")
    fc = payload["forecast"]
    print(f"forecast ({fc['n_particles']} particles, {fc['horizon_days']}d): "
          f"scalar {fc['scalar_seconds']:.3f}s | batched "
          f"{fc['batched_seconds']:.3f}s | speedup {fc['speedup']:.1f}x")
    if (os.cpu_count() or 1) < TARGET["min_workers"]:
        print(f"note: host has {os.cpu_count()} core(s); the "
              f">= {TARGET['min_speedup']}x multi-core target needs "
              f">= {TARGET['min_workers']} workers with real cores")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
