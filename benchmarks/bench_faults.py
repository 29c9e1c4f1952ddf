"""Overhead benchmark of the fault-tolerant dispatch path.

Two claims of the fault-tolerance PR are measured here:

* **Zero-fault overhead** — one calibration window (2,000 particles x 14
  days by default) simulated as a bare in-process loop of
  :func:`~repro.hpc.sharding.run_shard` over the window's shard tasks
  (``plain``: no executor, no dispatch, no result validation) vs the same
  shards through ``simulate_groups`` under a
  :class:`~repro.hpc.faults.RetryPolicy` (``fault_tolerant``: the one
  dispatch path — ``map_each`` plus result validation) with **no faults
  injected**.  The headline ``speedup`` is ``plain_seconds /
  fault_tolerant_seconds``; the acceptance target is >= 0.95 (< 5%
  overhead).  Both sides must also produce bit-identical ensembles —
  asserted, not timed.
* **Recovery cost** — the same window under a scripted
  :class:`~repro.testing.chaos.ChaosExecutor` crash-and-retry plan, reporting
  the wall-clock cost of re-executing failed shards (informational: no
  ``speedup`` key, so trend gating ignores it).

Emits ``BENCH_faults.json`` (``benchmarks/check_trend.py`` gates every
``speedup`` entry in CI).

Run standalone (``python benchmarks/bench_faults.py``) or under
pytest-benchmark (``pytest benchmarks/bench_faults.py``).
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

import numpy as np

from _bench_util import time_best, write_payload
from repro.hpc import (GroupSpec, RetryPolicy, SerialExecutor, ShardTask,
                       run_shard, shard_bounds, simulate_groups)
from repro.seir import DiseaseParameters
from repro.testing.chaos import ChaosExecutor, Fault, FaultPlan

DEFAULT_SIZE = 2_000
DEFAULT_DAYS = 14
DEFAULT_SHARDS = 4
STEPS_PER_DAY = 4
TARGET = {"min_speedup": 0.95}  # < 5% zero-fault overhead


def _seeds_and_thetas(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.Generator(np.random.PCG64(seed))
    seeds = rng.integers(0, 2**40, size=n, dtype=np.int64)
    thetas = rng.uniform(0.1, 0.5, size=n)
    return seeds, thetas


def _totals(results) -> np.ndarray:
    return np.concatenate([r.batch.infections.sum(axis=1) for r in results])


def run_window(executor, params: DiseaseParameters, seeds: np.ndarray,
               thetas: np.ndarray, n_days: int, n_shards: int,
               retry: RetryPolicy) -> np.ndarray:
    """One sharded window simulation; returns per-particle infection totals."""
    spec = GroupSpec(params=params, seeds=seeds, thetas=thetas, start_day=0)
    [group] = simulate_groups(
        executor, [spec], end_day=n_days,
        engine_options={"steps_per_day": STEPS_PER_DAY}, n_shards=n_shards,
        retry=retry)
    return _totals(group.results)


def run_window_bare(params: DiseaseParameters, seeds: np.ndarray,
                    thetas: np.ndarray, n_days: int,
                    n_shards: int) -> np.ndarray:
    """The same shards as :func:`run_window`, run by a bare loop of
    ``run_shard`` calls: the no-dispatch baseline."""
    tasks = [ShardTask(shard_id=i, params=params, seeds=seeds[lo:hi],
                       thetas=thetas[lo:hi], end_day=n_days,
                       engine_options={"steps_per_day": STEPS_PER_DAY},
                       start_day=0)
             for i, (lo, hi) in enumerate(shard_bounds(len(seeds),
                                                       n_shards=n_shards))]
    return _totals([run_shard(task) for task in tasks])


def run_faults_bench(n_particles: int = DEFAULT_SIZE,
                     n_days: int = DEFAULT_DAYS,
                     n_shards: int = DEFAULT_SHARDS,
                     repeats: int = 5, seed: int = 20240215,
                     population: int = 2_700_000) -> dict:
    """Time a bare shard loop vs fault-tolerant dispatch, zero faults."""
    params = DiseaseParameters(population=population,
                               initial_exposed=max(1, population // 5400))
    seeds, thetas = _seeds_and_thetas(n_particles, seed)
    executor = SerialExecutor()
    retry = RetryPolicy(max_attempts=3)

    plain_s, plain_totals = time_best(
        lambda: run_window_bare(params, seeds, thetas, n_days, n_shards),
        repeats)
    ft_s, ft_totals = time_best(
        lambda: run_window(executor, params, seeds, thetas, n_days,
                           n_shards, retry), repeats)
    if not np.array_equal(plain_totals, ft_totals):
        raise AssertionError(
            "fault-tolerant dispatch changed the simulated ensemble")

    # Recovery cost: every shard's first attempt crashes, retries succeed.
    plan = FaultPlan.scripted(*[Fault(kind="crash", shard=s, attempt=1)
                                for s in range(n_shards)])
    chaos = ChaosExecutor(executor, plan)
    failures: list = []

    def chaotic() -> np.ndarray:
        chaos.reset()
        failures.clear()
        return run_window(chaos, params, seeds, thetas, n_days, n_shards,
                          retry)

    chaos_s, chaos_totals = time_best(chaotic, 1)
    if not np.array_equal(plain_totals, chaos_totals):
        raise AssertionError("retried chaos run diverged from the plain run")

    return {
        "benchmark": "fault_tolerant_dispatch",
        "n_particles": n_particles,
        "n_days": n_days,
        "n_shards": n_shards,
        "steps_per_day": STEPS_PER_DAY,
        "population": params.population,
        "repeats": repeats,
        "cpu_count": os.cpu_count() or 1,
        "target": dict(TARGET),
        "zero_fault": {
            "plain_seconds": plain_s,
            "fault_tolerant_seconds": ft_s,
            "speedup": plain_s / ft_s,
            "overhead_percent": 100.0 * (ft_s / plain_s - 1.0),
            "bit_identical": True,
        },
        "recovery": {
            "crashed_shards": n_shards,
            "seconds": chaos_s,
            "seconds_over_plain": chaos_s - plain_s,
            "bit_identical": True,
        },
    }


def test_fault_overhead(benchmark, output_dir):
    """pytest-benchmark entry point (CI smoke scale)."""
    from _bench_util import once

    payload = once(benchmark, lambda: run_faults_bench(
        n_particles=500, repeats=2, population=500_000))
    write_payload(payload, output_dir / "BENCH_faults.json")
    print("\nFaults bench:", json.dumps(payload, indent=2))
    assert payload["zero_fault"]["bit_identical"]
    assert payload["recovery"]["bit_identical"]
    # Smoke floor is looser than the committed-result target: CI runners
    # are noisy and the trend gate judges the committed baseline instead.
    assert payload["zero_fault"]["speedup"] > 0.75


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--particles", type=int, default=DEFAULT_SIZE)
    parser.add_argument("--n-days", type=int, default=DEFAULT_DAYS)
    parser.add_argument("--shards", type=int, default=DEFAULT_SHARDS)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=20240215)
    parser.add_argument("--population", type=int, default=2_700_000)
    parser.add_argument("--output", type=Path,
                        default=Path("BENCH_faults.json"))
    args = parser.parse_args(argv)
    payload = run_faults_bench(args.particles, args.n_days, args.shards,
                               args.repeats, args.seed, args.population)
    write_payload(payload, args.output)
    zf = payload["zero_fault"]
    print(f"{args.particles} particles x {args.n_days}d, "
          f"{args.shards} shards: plain {zf['plain_seconds']:.3f}s | "
          f"fault-tolerant {zf['fault_tolerant_seconds']:.3f}s | "
          f"overhead {zf['overhead_percent']:.1f}% "
          f"(speedup {zf['speedup']:.3f}x)")
    rec = payload["recovery"]
    print(f"recovery: {rec['crashed_shards']} crashed shards re-executed in "
          f"{rec['seconds']:.3f}s (+{rec['seconds_over_plain']:.3f}s over "
          f"plain)")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
