"""Throughput benchmark of the window-simulation hot path.

Simulates one calibration window (14 days by default) for an ensemble of
particles two ways:

* **scalar** — one :class:`~repro.testing.BinomialLeapEngine` per particle,
  the per-particle work of the scalar reference oracle (engine
  construction, day loop), and
* **batched** — one :class:`~repro.seir.BatchedBinomialLeapEngine` stepping
  the whole cloud as a ``(n_particles, n_compartments)`` state matrix,
  including the columnar :class:`~repro.seir.StackedLeapState` restart
  state a shard returns,

at several ensemble sizes, and emits a ``BENCH_simulation.json`` baseline
with per-path timings, particle throughput, the batched/scalar speedup, and
the two paths' mean total infections (a coarse distributional-parity
readout; the rigorous moment tests live in
``tests/seir/test_batch_engine.py``).

Run standalone (``python benchmarks/bench_simulation.py``) or under
pytest-benchmark (``pytest benchmarks/bench_simulation.py``).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from _bench_util import time_best, write_payload
from repro.seir import (BatchedBinomialLeapEngine, DiseaseParameters,
                        StackedLeapState)
from repro.testing import BinomialLeapEngine

DEFAULT_SIZES = (250, 1000, 2000)
DEFAULT_DAYS = 14
STEPS_PER_DAY = 4
TARGET_SIZE = 2000
TARGET_SPEEDUP = 5.0


def _seeds_and_thetas(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.Generator(np.random.PCG64(seed))
    seeds = rng.integers(0, 2**40, size=n, dtype=np.int64)
    thetas = rng.uniform(0.1, 0.5, size=n)
    return seeds, thetas


def run_scalar(params: DiseaseParameters, seeds: np.ndarray,
               thetas: np.ndarray, n_days: int) -> float:
    """Per-particle window simulation; returns mean total infections."""
    totals = np.empty(len(seeds))
    for i, (seed, theta) in enumerate(zip(seeds, thetas)):
        engine = BinomialLeapEngine(
            params.with_updates(transmission_rate=float(theta)), int(seed),
            steps_per_day=STEPS_PER_DAY)
        totals[i] = engine.run_until(n_days).infections.sum()
    return float(totals.mean())


def run_batched(params: DiseaseParameters, seeds: np.ndarray,
                thetas: np.ndarray, n_days: int) -> float:
    """Whole-cloud window simulation; returns mean total infections."""
    engine = BatchedBinomialLeapEngine(params, seeds, thetas=thetas,
                                       steps_per_day=STEPS_PER_DAY)
    batch = engine.run_until(n_days)
    StackedLeapState(
        day=engine.day, steps_per_day=engine.steps_per_day,
        counts=engine.counts, cum_infections=engine.cumulative_infections,
        cum_deaths=engine.cumulative_deaths, seeds=engine.seeds)
    return float(batch.infections.sum(axis=1).mean())


def run_simulation_bench(sizes=DEFAULT_SIZES, n_days: int = DEFAULT_DAYS,
                         repeats: int = 1, seed: int = 20240215,
                         population: int = 2_700_000) -> dict:
    """Time scalar vs batched window simulation; return the JSON payload."""
    params = DiseaseParameters(population=population,
                               initial_exposed=max(1, population // 5400))
    payload: dict = {
        "benchmark": "window_simulation",
        "n_days": n_days,
        "steps_per_day": STEPS_PER_DAY,
        "population": params.population,
        "repeats": repeats,
        "target": {"n_particles": TARGET_SIZE, "min_speedup": TARGET_SPEEDUP},
        "sizes": {},
    }
    for n in sizes:
        seeds, thetas = _seeds_and_thetas(n, seed)
        scalar_s, scalar_mean = time_best(
            lambda: run_scalar(params, seeds, thetas, n_days), repeats)
        batched_s, batched_mean = time_best(
            lambda: run_batched(params, seeds, thetas, n_days), repeats)
        payload["sizes"][str(n)] = {
            "scalar_seconds": scalar_s,
            "batched_seconds": batched_s,
            "speedup": scalar_s / batched_s,
            "scalar_particles_per_sec": n / scalar_s,
            "batched_particles_per_sec": n / batched_s,
            "scalar_mean_total_infections": scalar_mean,
            "batched_mean_total_infections": batched_mean,
        }
    return payload


def test_simulation_throughput(benchmark, output_dir):
    """pytest-benchmark entry point; checks speedup and coarse parity."""
    from _bench_util import once

    payload = once(benchmark, lambda: run_simulation_bench(sizes=(250, 2000)))
    write_payload(payload, output_dir / "BENCH_simulation.json")
    print("\nSimulation bench:", json.dumps(payload, indent=2))
    for n, stats in payload["sizes"].items():
        assert stats["speedup"] > 1.0, n
        np.testing.assert_allclose(stats["batched_mean_total_infections"],
                                   stats["scalar_mean_total_infections"],
                                   rtol=0.25)
    assert payload["sizes"]["2000"]["speedup"] > 2.0


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=list(DEFAULT_SIZES))
    parser.add_argument("--n-days", type=int, default=DEFAULT_DAYS)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--seed", type=int, default=20240215)
    parser.add_argument("--population", type=int, default=2_700_000)
    parser.add_argument("--output", type=Path,
                        default=Path("BENCH_simulation.json"))
    args = parser.parse_args(argv)
    payload = run_simulation_bench(tuple(args.sizes), args.n_days,
                                   args.repeats, args.seed, args.population)
    write_payload(payload, args.output)
    for n, stats in payload["sizes"].items():
        print(f"{int(n):>6} particles: scalar {stats['scalar_seconds']:.3f}s "
              f"({stats['scalar_particles_per_sec']:.0f} p/s) | "
              f"batched {stats['batched_seconds']:.4f}s "
              f"({stats['batched_particles_per_sec']:.0f} p/s) | "
              f"speedup {stats['speedup']:.1f}x")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
