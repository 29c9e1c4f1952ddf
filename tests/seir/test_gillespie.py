"""Unit tests for the exact Gillespie engine."""

import numpy as np
import pytest

from repro.seir import Compartment
from repro.testing import GillespieEngine


class TestGillespie:
    def test_population_conserved(self, tiny_params):
        eng = GillespieEngine(tiny_params, seed=1)
        eng.run_until(30)
        assert eng.population_conserved()

    def test_deterministic_given_seed(self, tiny_params):
        t1 = GillespieEngine(tiny_params, seed=5).run_until(25)
        t2 = GillespieEngine(tiny_params, seed=5).run_until(25)
        assert np.array_equal(t1.infections, t2.infections)

    def test_counts_nonnegative(self, tiny_params):
        eng = GillespieEngine(tiny_params, seed=2)
        for _ in range(30):
            eng.step_day()
            assert np.all(eng.counts >= 0)

    def test_zero_transmission_no_infections(self, tiny_params):
        params = tiny_params.with_updates(transmission_rate=0.0)
        traj = GillespieEngine(params, seed=3).run_until(25)
        assert traj.total_infections() == 0

    def test_epidemic_extinguishes_eventually(self, tiny_params):
        """With a closed small population the event stream must dry up."""
        eng = GillespieEngine(tiny_params, seed=4)
        eng.run_until(400)
        infected = sum(eng.count_of(c) for c in Compartment
                       if c.name not in ("S", "R_U", "R_D", "D_U", "D_D"))
        assert infected == 0

    def test_event_budget_guard(self, small_params):
        eng = GillespieEngine(small_params, seed=1, max_events_per_day=10)
        with pytest.raises(RuntimeError, match="budget"):
            eng.run_until(30)

    def test_snapshot_round_trip(self, tiny_params):
        eng = GillespieEngine(tiny_params, seed=9)
        eng.run_until(10)
        snap = eng.state_snapshot()
        continued = eng.run_until(20)
        replay = GillespieEngine.from_snapshot(snap, tiny_params).run_until(20)
        assert np.array_equal(continued.infections, replay.infections)

    def test_cumulative_counters(self, tiny_params):
        eng = GillespieEngine(tiny_params, seed=11)
        traj = eng.run_until(40)
        assert eng.cumulative_infections == traj.total_infections()
        assert eng.cumulative_deaths == traj.total_deaths()
