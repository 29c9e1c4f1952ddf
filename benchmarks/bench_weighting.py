"""Throughput benchmark of the ensemble weighting hot path.

Weighs a synthetic particle ensemble (random case/death segments, random
rho) against a two-stream observation window through both implementations of
the weighting step:

* **scalar** — the per-particle reference loop
  (``repro.testing.loglik_reference``), and
* **batched** — the production weighting path
  (``ParticleEnsemble.segment_matrix`` + ``BinomialBiasModel.apply_batch`` +
  ``GaussianTransformLikelihood.loglik_batch`` via
  ``ObservationModel.loglik_ensemble``),

in both bias modes, and emits a ``BENCH_weighting.json`` baseline with
per-path timings, particle throughput, and the batched/scalar speedup.  No
simulation runs here: the benchmark isolates exactly the weighting cost the
sequential calibrator pays once per window.

Run standalone (``python benchmarks/bench_weighting.py``) or under
pytest-benchmark (``pytest benchmarks/bench_weighting.py``).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from _bench_util import time_best, write_payload
from repro.core import Particle, ParticleEnsemble, paper_observation_model
from repro.data import CASES, DEATHS, ObservationSet, ObservationSource, TimeSeries
from repro.seir import SeedSequenceBank, Trajectory
from repro.testing import loglik_reference

START_DAY = 20
DEFAULT_PARTICLES = 5_000
DEFAULT_DAYS = 14


def build_ensemble(n_particles: int, n_days: int,
                   rng: np.random.Generator) -> ParticleEnsemble:
    """Synthetic particles with epidemic-scale count segments."""
    cases = rng.poisson(lam=rng.uniform(50, 400, size=n_particles)[:, None],
                        size=(n_particles, n_days)).astype(np.float64)
    deaths = rng.poisson(3.0, size=(n_particles, n_days)).astype(np.float64)
    zeros = np.zeros(n_days)
    rho = rng.uniform(0.3, 0.95, size=n_particles)
    theta = rng.uniform(0.1, 0.5, size=n_particles)
    particles = [
        Particle(params={"theta": float(theta[i]), "rho": float(rho[i])},
                 seed=i,
                 segment=Trajectory(START_DAY, cases[i], deaths[i],
                                    zeros, zeros))
        for i in range(n_particles)
    ]
    return ParticleEnsemble(particles)


def build_observations(n_days: int, rng: np.random.Generator) -> ObservationSet:
    return ObservationSet.of(
        ObservationSource(CASES,
                          TimeSeries(START_DAY, rng.poisson(120, size=n_days)),
                          channel=CASES, biased=True),
        ObservationSource(DEATHS,
                          TimeSeries(START_DAY, rng.poisson(3, size=n_days)),
                          channel=DEATHS, biased=False))


def run_weighting_bench(n_particles: int = DEFAULT_PARTICLES,
                        n_days: int = DEFAULT_DAYS,
                        repeats: int = 3, seed: int = 20240215) -> dict:
    """Time scalar vs batched weighting; return the JSON payload."""
    rng = np.random.Generator(np.random.PCG64(seed))
    ensemble = build_ensemble(n_particles, n_days, rng)
    observations = build_observations(n_days, rng)
    bank = SeedSequenceBank(seed)
    rho = ensemble.values("rho")

    payload: dict = {
        "benchmark": "ensemble_weighting",
        "n_particles": n_particles,
        "n_days": n_days,
        "repeats": repeats,
        "modes": {},
    }
    # The scalar reference loops over per-particle records, built once
    # outside the timed region.
    particles = ensemble.particles
    for mode in ("mean", "sample"):
        om = paper_observation_model(bias_mode=mode)

        def scalar():
            r = bank.ancillary_generator(1, window_index=0)
            return loglik_reference(om, observations, particles, r)

        def batched():
            r = bank.ancillary_generator(1, window_index=0)
            return om.loglik_ensemble(observations, ensemble, rho, r)

        scalar_s, scalar_ll = time_best(scalar, repeats)
        batched_s, batched_ll = time_best(batched, repeats)
        max_abs_diff = float(np.max(np.abs(scalar_ll - batched_ll)))
        payload["modes"][mode] = {
            "scalar_seconds": scalar_s,
            "batched_seconds": batched_s,
            "speedup": scalar_s / batched_s,
            "scalar_particles_per_sec": n_particles / scalar_s,
            "batched_particles_per_sec": n_particles / batched_s,
            "max_abs_loglik_diff": max_abs_diff,
        }
    return payload


def test_weighting_throughput(benchmark, output_dir):
    """pytest-benchmark entry point; also checks batched/scalar agreement."""
    from _bench_util import once

    payload = once(benchmark, run_weighting_bench)
    write_payload(payload, output_dir / "BENCH_weighting.json")
    print("\nWeighting bench:", json.dumps(payload, indent=2))
    for mode, stats in payload["modes"].items():
        assert stats["max_abs_loglik_diff"] < 1e-6, mode
        assert stats["speedup"] > 1.0, mode


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-particles", type=int, default=DEFAULT_PARTICLES)
    parser.add_argument("--n-days", type=int, default=DEFAULT_DAYS)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=20240215)
    parser.add_argument("--output", type=Path,
                        default=Path("BENCH_weighting.json"))
    args = parser.parse_args(argv)
    payload = run_weighting_bench(args.n_particles, args.n_days,
                                  args.repeats, args.seed)
    write_payload(payload, args.output)
    for mode, stats in payload["modes"].items():
        print(f"{mode:>6}: scalar {stats['scalar_seconds']:.3f}s "
              f"({stats['scalar_particles_per_sec']:.0f} p/s) | "
              f"batched {stats['batched_seconds']:.4f}s "
              f"({stats['batched_particles_per_sec']:.0f} p/s) | "
              f"speedup {stats['speedup']:.1f}x | "
              f"max |dll| {stats['max_abs_loglik_diff']:.2e}")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
