"""Scenario-sweep benchmark: many worlds batched vs sequential calibrations.

The scenario axis claims its batching is *free and then profitable*: every
scenario of a :class:`~repro.core.scenarios.ScenarioSweep` is bit-identical
to running that scenario alone (the parity oracles assert this; so does
this bench), while common random numbers plus world-line deduplication make
the sweep strictly cheaper than S standalone runs.  For the default
4-scenario set over the paper-style breaks (20, 34, 48, 62) the overrides
land at days 34/48, so the sweep computes 7 world-line windows (1 shared,
then 2-way, then 4-way splits) where the sequential loop computes 12 — a
~1.7x bound on window work.

Measured here at one calibration window's paper-bench scale (2,000
particles x 14-day continuation windows by default): wall time of the
sweep vs the summed wall time of the four standalone calibrations, same
config and shard layout.  The headline ``speedup`` is
``sequential_seconds / sweep_seconds``; the acceptance target is >= 1.5.
Per-scenario bit-identity between the two paths is asserted, not timed.

Emits ``BENCH_scenarios.json`` (``benchmarks/check_trend.py`` gates every
``speedup`` entry in CI).

Run standalone (``python benchmarks/bench_scenarios.py``) or under
pytest-benchmark (``pytest benchmarks/bench_scenarios.py``).
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

from _bench_util import time_best, write_payload
from repro.core import (SMCConfig, SequentialCalibrator, WindowSchedule,
                        paper_first_window_prior, paper_observation_model,
                        paper_window_jitter)
from repro.core.scenarios import ScenarioSweep, scenario_set
from repro.data import PiecewiseConstant
from repro.seir import DiseaseParameters
from repro.sim import make_ground_truth
from repro.testing import assert_runs_identical

DEFAULT_BREAKS = (20, 34, 48, 62)  # paper-style; overrides land at 34/48
DEFAULT_DRAWS = 400
DEFAULT_REPLICATES = 5  # 400 x 5 = 2,000 particles per proposal window
DEFAULT_RESAMPLE = 400
DEFAULT_SHARDS = 4
TARGET = {"min_speedup": 1.5}


def _config(draws: int, replicates: int, resample: int, n_shards: int,
            base_seed: int) -> SMCConfig:
    return SMCConfig(n_parameter_draws=draws, n_replicates=replicates,
                     resample_size=resample, base_seed=base_seed,
                     n_shards=n_shards)


def _calibrator(truth, scenario, config: SMCConfig,
                breaks: tuple[int, ...]) -> SequentialCalibrator:
    return SequentialCalibrator(
        base_params=truth.params, prior=paper_first_window_prior(),
        jitter=paper_window_jitter(),
        observation_model=paper_observation_model(),
        schedule=WindowSchedule.from_breaks(list(breaks)),
        config=config, scenario=scenario)


def run_scenarios_bench(draws: int = DEFAULT_DRAWS,
                        replicates: int = DEFAULT_REPLICATES,
                        resample: int = DEFAULT_RESAMPLE,
                        n_shards: int = DEFAULT_SHARDS,
                        breaks: tuple[int, ...] = DEFAULT_BREAKS,
                        repeats: int = 1, seed: int = 20240215,
                        population: int = 500_000) -> dict:
    """Time the 4-scenario sweep against 4 standalone calibrations."""
    specs = scenario_set("default")
    params = DiseaseParameters(population=population,
                               initial_exposed=max(1, population // 5000))
    truth = make_ground_truth(params=params, horizon=breaks[-1], seed=seed,
                              theta_schedule=PiecewiseConstant.constant(0.30),
                              rho_schedule=PiecewiseConstant.constant(0.7))
    observations = truth.observations(include_deaths=True)
    config = _config(draws, replicates, resample, n_shards, base_seed=17)

    def sequential() -> dict:
        return {spec.name: _calibrator(truth, spec, config, breaks)
                .run(observations) for spec in specs}

    def swept() -> tuple[ScenarioSweep, dict]:
        sweep = ScenarioSweep(
            base_params=truth.params, prior=paper_first_window_prior(),
            jitter=paper_window_jitter(),
            observation_model=paper_observation_model(),
            schedule=WindowSchedule.from_breaks(list(breaks)),
            scenarios=specs, config=config)
        return sweep, sweep.run(observations)

    seq_s, seq_results = time_best(sequential, repeats)
    sweep_s, (sweep, sweep_results) = time_best(swept, repeats)

    # The speedup only counts if the sweep changed nothing: every scenario
    # must be bit-identical to its standalone calibration.
    for name in sweep.names:
        assert_runs_identical(seq_results[name], sweep_results[name],
                              f"scenario {name!r}")

    n_windows = len(list(sweep.schedule))
    return {
        "benchmark": "scenario_sweep",
        "n_scenarios": len(specs),
        "scenarios": sweep.names,
        "n_particles": draws * replicates,
        "n_windows": n_windows,
        "resample_size": resample,
        "breaks": list(breaks),
        "n_shards": n_shards,
        "population": population,
        "repeats": repeats,
        "cpu_count": os.cpu_count() or 1,
        "target": dict(TARGET),
        "sweep": {
            "sequential_seconds": seq_s,
            "sweep_seconds": sweep_s,
            "speedup": seq_s / sweep_s,
            "sequential_windows": len(specs) * n_windows,
            "computed_windows": sweep.computed_windows,
            "reused_windows": sweep.reused_windows,
            "bit_identical": True,
        },
    }


def test_scenario_sweep_speedup(benchmark, output_dir):
    """pytest-benchmark entry point (CI smoke scale)."""
    from _bench_util import once

    # The built-in override days (34/48) must sit on continuation window
    # starts, so smoke scale shrinks the ensemble, not the schedule.
    payload = once(benchmark, lambda: run_scenarios_bench(
        draws=30, replicates=2, resample=40, n_shards=3,
        population=50_000))
    write_payload(payload, output_dir / "BENCH_scenarios.json")
    print("\nScenarios bench:", json.dumps(payload, indent=2))
    assert payload["sweep"]["bit_identical"]
    assert payload["sweep"]["reused_windows"] > 0
    # Smoke floor is looser than the committed-result target: CI runners
    # are noisy and the trend gate judges the committed baseline instead.
    assert payload["sweep"]["speedup"] > 1.1


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=DEFAULT_DRAWS)
    parser.add_argument("--replicates", type=int, default=DEFAULT_REPLICATES)
    parser.add_argument("--resample", type=int, default=DEFAULT_RESAMPLE)
    parser.add_argument("--shards", type=int, default=DEFAULT_SHARDS)
    parser.add_argument("--breaks", type=int, nargs="+",
                        default=list(DEFAULT_BREAKS))
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--seed", type=int, default=20240215)
    parser.add_argument("--population", type=int, default=500_000)
    parser.add_argument("--output", type=Path,
                        default=Path("BENCH_scenarios.json"))
    args = parser.parse_args(argv)
    payload = run_scenarios_bench(args.draws, args.replicates, args.resample,
                                  args.shards, tuple(args.breaks),
                                  args.repeats, args.seed, args.population)
    write_payload(payload, args.output)
    sw = payload["sweep"]
    print(f"{payload['n_scenarios']} scenarios x {payload['n_windows']} "
          f"windows, "
          f"{payload['n_particles']} particles: sequential "
          f"{sw['sequential_seconds']:.3f}s ({sw['sequential_windows']} "
          f"windows) | sweep {sw['sweep_seconds']:.3f}s "
          f"({sw['computed_windows']} computed + {sw['reused_windows']} "
          f"reused) | speedup {sw['speedup']:.3f}x")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
