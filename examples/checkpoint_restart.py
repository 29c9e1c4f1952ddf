"""Checkpoint/restart mechanics and counterfactual scenario branching.

Demonstrates the machinery of paper section III-B directly, on the same
columnar restart state the calibrator checkpoints between windows:

1. run a batch of epidemic trajectories to day 40 and persist their state
   (compartment occupancy, clock, cumulative outputs, seeds, parameters)
   through a :class:`~repro.hpc.CheckpointStore`;
2. restart from the file and verify that the same state and seeds give the
   same bits as restarting from memory;
3. branch *counterfactual scenarios* from the same day-40 state — e.g.
   "what if an intervention halves transmission?" — which is exactly how
   calibrated models support intervention planning (section VI);
4. show the computational saving versus re-simulating from day 0.

Run:  python examples/checkpoint_restart.py
"""

from __future__ import annotations

import tempfile
import time

import numpy as np

from repro.hpc import CheckpointStore
from repro.seir import (BatchedBinomialLeapEngine, DiseaseParameters,
                        StackedLeapState)
from repro.viz import multi_line_plot

N_MEMBERS = 100


def restart_state(engine: BatchedBinomialLeapEngine) -> StackedLeapState:
    """The batch's rows as restart state, with their parameters attached."""
    return StackedLeapState(
        day=engine.day, steps_per_day=engine.steps_per_day,
        counts=engine.counts, cum_infections=engine.cumulative_infections,
        cum_deaths=engine.cumulative_deaths, seeds=engine.seeds,
        params=engine.params, thetas=engine.thetas)


def main() -> None:
    params = DiseaseParameters(population=200_000, initial_exposed=400)
    seeds = np.arange(N_MEMBERS)

    # --- 1. simulate and checkpoint ----------------------------------------
    engine = BatchedBinomialLeapEngine(params, seeds)
    engine.run_until(40)
    state = restart_state(engine)
    with tempfile.TemporaryDirectory() as tmp:
        store = CheckpointStore(tmp)
        store.save_window_state(0, state, {"day": state.day})
        path = store.root / "window_000" / "checkpoints.npz"
        print(f"Checkpointed {state.n_particles} day-40 states to "
              f"{path.name} ({path.stat().st_size} bytes)")
        restored, _ = store.load_window_state(0)

    # --- 2. same state and seeds, same bits ----------------------------------
    new_seeds = seeds + 1_000
    from_memory = BatchedBinomialLeapEngine.from_particle_snapshots(
        state, params, seeds=new_seeds).run_until(70)
    from_file = BatchedBinomialLeapEngine.from_particle_snapshots(
        restored, params, seeds=new_seeds).run_until(70)
    identical = np.array_equal(from_memory.infections, from_file.infections)
    print(f"Restart from file equals restart from memory: {identical}")
    assert identical

    # --- 3. counterfactual branching ----------------------------------------
    theta = params.transmission_rate
    scenarios = {"no change": theta,
                 "intervention (theta x 0.5)": theta * 0.5,
                 "new variant (theta x 1.5)": theta * 1.5}
    print("\nBranching three scenarios from the same day-40 state:")
    curves = {}
    for label, scenario_theta in scenarios.items():
        branch = BatchedBinomialLeapEngine.from_particle_snapshots(
            restored, params, seeds=new_seeds,
            thetas=np.full(N_MEMBERS, scenario_theta)).run_until(70)
        curves[label] = np.median(branch.infections, axis=0)
        print(f"  {label:28s} day-69 median daily infections: "
              f"{curves[label][-1]:8.0f}   mean deaths, days 40-69: "
              f"{branch.deaths.sum(axis=1).mean():5.0f}")
    print()
    print(multi_line_plot(
        [np.maximum(c, 1) for c in curves.values()],
        markers=["o", "-", "+"], log_scale=True, height=12,
        title="median daily infections, day 40-70  "
              "(o: baseline, -: intervention, +: variant)"))

    # --- 4. the computational saving ----------------------------------------
    t0 = time.perf_counter()
    BatchedBinomialLeapEngine.from_particle_snapshots(
        restored, params, seeds=new_seeds).run_until(54)
    warm = time.perf_counter() - t0
    t0 = time.perf_counter()
    BatchedBinomialLeapEngine(params, new_seeds).run_until(54)
    cold = time.perf_counter() - t0
    print(f"\n{N_MEMBERS} fourteen-day continuations: {warm:.3f}s from the "
          f"checkpoint vs {cold:.3f}s from day 0 ({cold / warm:.1f}x saving)")


if __name__ == "__main__":
    main()
