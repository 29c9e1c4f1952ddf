"""Engine ablation — binomial-leap vs the exact SSA oracle vs batched.

The paper's CMS simulator is event-driven; our workhorse is the vectorised
binomial leap.  This bench validates that choice by measuring (a)
distributional agreement of attack rates and deaths with the exact SSA
(:class:`repro.testing.GillespieEngine`) on a small population where it is
feasible, and (b) the throughput gap that makes the leap engine the only
viable option at Chicago scale.  A third test sweeps the batched ensemble
engine across ensemble sizes against the scalar leap loop and emits a
machine-readable comparison matrix alongside the ablation outputs.
"""

from __future__ import annotations

import time

import numpy as np

from _bench_util import once
from repro.seir import (BatchedBinomialLeapEngine, BinomialLeapEngine,
                        DiseaseParameters)
from repro.testing import GillespieEngine
from repro.viz import write_json

SMALL = DiseaseParameters(population=3_000, initial_exposed=30,
                          transmission_rate=0.35)
N_REPS = 10
HORIZON = 50


def _stats(engine_cls, **kwargs):
    attack, deaths = [], []
    t0 = time.perf_counter()
    for seed in range(N_REPS):
        traj = engine_cls(SMALL, seed=seed + 50, **kwargs).run_until(HORIZON)
        attack.append(traj.total_infections() / SMALL.population)
        deaths.append(traj.total_deaths())
    seconds = time.perf_counter() - t0
    return {"attack_mean": float(np.mean(attack)),
            "attack_sd": float(np.std(attack)),
            "deaths_mean": float(np.mean(deaths)),
            "seconds_per_run": seconds / N_REPS}


def test_engine_agreement_and_throughput(benchmark, output_dir):
    ssa = _stats(GillespieEngine)
    leap = once(benchmark, lambda: _stats(BinomialLeapEngine, steps_per_day=8))

    summary = {"population": SMALL.population, "horizon": HORIZON,
               "replicates": N_REPS,
               "binomial_leap": leap, "gillespie": ssa}
    write_json(output_dir / "engines_ablation.json", summary)
    print("\nengine ablation (3k population, 50 days):")
    for name in ("binomial_leap", "gillespie"):
        row = summary[name]
        print(f"  {name}: attack {row['attack_mean']:.3f} "
              f"(sd {row['attack_sd']:.3f}), "
              f"{1000 * row['seconds_per_run']:.1f} ms/run")

    # Distributional agreement with the exact law.
    np.testing.assert_allclose(leap["attack_mean"], ssa["attack_mean"],
                               rtol=0.2)
    # Throughput: the leap engine's per-run cost must not scale with the
    # event count the way the SSA does (at 3k pop SSA is already slower).
    assert leap["seconds_per_run"] < ssa["seconds_per_run"]


def test_leap_cost_independent_of_population(benchmark, output_dir):
    """The leap engine's defining property: cost ~ O(days), not O(events)."""
    def run(pop):
        params = DiseaseParameters(population=pop,
                                   initial_exposed=max(10, pop // 5000))
        t0 = time.perf_counter()
        BinomialLeapEngine(params, seed=4).run_until(60)
        return time.perf_counter() - t0

    small_s = run(10_000)
    big_s = once(benchmark, lambda: run(2_700_000))
    write_json(output_dir / "engines_population_scaling.json", {
        "seconds_10k": small_s, "seconds_2p7m": big_s})
    print(f"\nleap engine: 10k pop {1000 * small_s:.1f} ms vs "
          f"2.7M pop {1000 * big_s:.1f} ms for 60 days")
    # Within an order of magnitude despite a 270x population ratio.
    assert big_s < 10 * small_s + 0.05


def test_batched_engine_matrix(benchmark, output_dir):
    """Batched vs scalar leap across ensemble sizes (machine-readable)."""
    def sweep():
        rows = {}
        for n in (64, 256, 1024):
            seeds = np.arange(n) + 900
            t0 = time.perf_counter()
            scalar_attack = np.empty(n)
            for i, seed in enumerate(seeds):
                traj = BinomialLeapEngine(SMALL, seed=int(seed),
                                          steps_per_day=4).run_until(HORIZON)
                scalar_attack[i] = traj.total_infections() / SMALL.population
            scalar_s = time.perf_counter() - t0

            t0 = time.perf_counter()
            batch = BatchedBinomialLeapEngine(
                SMALL, seeds, steps_per_day=4).run_until(HORIZON)
            batched_s = time.perf_counter() - t0
            batched_attack = batch.infections.sum(axis=1) / SMALL.population
            rows[str(n)] = {
                "scalar_seconds": scalar_s,
                "batched_seconds": batched_s,
                "speedup": scalar_s / batched_s,
                "scalar_attack_mean": float(scalar_attack.mean()),
                "batched_attack_mean": float(batched_attack.mean()),
            }
        return rows

    rows = once(benchmark, sweep)
    summary = {"population": SMALL.population, "horizon": HORIZON,
               "engines": ("binomial_leap", "binomial_leap_batched"),
               "sizes": rows}
    write_json(output_dir / "engines_batched_matrix.json", summary)
    print("\nbatched engine matrix (3k population, 50 days):")
    for n, row in rows.items():
        print(f"  n={n}: scalar {row['scalar_seconds']:.2f}s, "
              f"batched {row['batched_seconds']:.3f}s "
              f"({row['speedup']:.1f}x), attack "
              f"{row['scalar_attack_mean']:.3f} vs "
              f"{row['batched_attack_mean']:.3f}")
        # Distributional agreement with the scalar oracle.
        np.testing.assert_allclose(row["batched_attack_mean"],
                                   row["scalar_attack_mean"], rtol=0.2)
    # Batching must win, and win more at larger ensembles.
    assert rows["1024"]["speedup"] > 1.0
    assert rows["1024"]["speedup"] >= rows["64"]["speedup"] * 0.5
