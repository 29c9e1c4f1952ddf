"""Checkpointing claim (paper sections III-B, VI).

"By preserving the detailed state of the model at intermediate time points
through checkpointing ... [this] obviates the need to restart the simulation
from the epidemic's onset."

This bench quantifies the saving: continuing the final calibration window
(days 62-76) from a day-62 checkpoint versus re-simulating from day 0, over
a batch of restarts on the scalar engine.  The checkpoint is one
:class:`~repro.seir.StackedLeapState` row read back from a
:class:`~repro.hpc.CheckpointStore` and restarted through the scalar
restart oracle (:func:`repro.testing.restart_oracle`) on fresh seeds.  Warm
restarts should cost roughly ``14/76`` of the cold runs — the asymptotic
saving the sequential scheme relies on — and the bench also verifies the
restarts cover the right day range.
"""

from __future__ import annotations

import time

import numpy as np

from _bench_util import once
from repro.hpc import CheckpointStore
from repro.seir import StackedLeapState, chicago_defaults
from repro.testing import BinomialLeapEngine, restart_oracle
from repro.viz import write_json

N_RESTARTS = 30
CHECKPOINT_DAY = 62
END_DAY = 76


def test_checkpoint_restart_saving(benchmark, output_dir, tmp_path):
    params = chicago_defaults()
    base = BinomialLeapEngine(params, seed=1234)
    base.run_until(CHECKPOINT_DAY)
    # As stored on disk between windows: one restart row.
    store = CheckpointStore(tmp_path)
    store.save_window_state(0, StackedLeapState(
        day=base.day, steps_per_day=base.steps_per_day,
        counts=base.counts[None],
        cum_infections=np.array([base.cumulative_infections]),
        cum_deaths=np.array([base.cumulative_deaths]),
        seeds=np.array([base.seed]), params=params,
        thetas=np.array([params.transmission_rate])), {})

    def warm_batch():
        state, _ = store.load_window_state(0)
        return restart_oracle(state.take(np.zeros(N_RESTARTS, dtype=int)),
                              np.arange(N_RESTARTS), END_DAY)

    def cold_batch():
        return [BinomialLeapEngine(params, seed=k).run_until(END_DAY)
                for k in range(N_RESTARTS)]

    t0 = time.perf_counter()
    cold = cold_batch()
    cold_seconds = time.perf_counter() - t0

    warm = once(benchmark, warm_batch)
    # benchmark.stats holds the timed warm duration
    warm_seconds = benchmark.stats.stats.mean

    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    summary = {
        "n_restarts": N_RESTARTS,
        "checkpoint_day": CHECKPOINT_DAY,
        "end_day": END_DAY,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": speedup,
        "ideal_speedup": END_DAY / (END_DAY - CHECKPOINT_DAY),
    }
    write_json(output_dir / "checkpoint_saving.json", summary)
    print(f"\ncheckpoint restart: cold {cold_seconds:.2f}s vs warm "
          f"{warm_seconds:.2f}s (speedup {speedup:.1f}x, ideal "
          f"{summary['ideal_speedup']:.1f}x)")

    # Warm restarts simulate 14 of 76 days; require at least a 2x saving.
    assert speedup > 2.0
    # Restarted segments are the correct window and physically sane.
    assert warm.n_particles == N_RESTARTS
    assert warm.start_day == CHECKPOINT_DAY
    assert warm.end_day == END_DAY
    for traj in cold:
        assert traj.start_day == 0
