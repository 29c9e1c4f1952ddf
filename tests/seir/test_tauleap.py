"""Unit tests for the binomial-leap engine."""

import numpy as np
import pytest

from repro.data import PiecewiseConstant
from repro.seir import Compartment, StackedLeapState
from repro.testing import BinomialLeapEngine, population_conserved


class TestBasicDynamics:
    def test_initial_state(self, small_params):
        eng = BinomialLeapEngine(small_params, seed=1)
        assert eng.day == 0
        assert eng.count_of(Compartment.S) == small_params.population - 40
        assert eng.count_of(Compartment.E) == 40

    def test_population_conserved_over_run(self, small_params):
        eng = BinomialLeapEngine(small_params, seed=1)
        eng.run_until(60)
        assert population_conserved(eng)

    def test_counts_never_negative(self, small_params):
        eng = BinomialLeapEngine(small_params, seed=2)
        for _ in range(60):
            eng.step_day()
            assert np.all(eng.counts >= 0)

    def test_epidemic_grows_with_default_r0(self, small_params):
        eng = BinomialLeapEngine(small_params, seed=3)
        traj = eng.run_until(50)
        late = traj.infections[0, 35:].sum()
        early = traj.infections[0, :15].sum()
        assert late > early

    def test_zero_transmission_no_infections(self, small_params):
        params = small_params.with_updates(transmission_rate=0.0)
        eng = BinomialLeapEngine(params, seed=4)
        traj = eng.run_until(30)
        assert traj.infections.sum() == 0

    def test_no_initial_exposed_stays_susceptible(self, small_params):
        params = small_params.with_updates(initial_exposed=0)
        eng = BinomialLeapEngine(params, seed=5)
        traj = eng.run_until(20)
        assert traj.infections.sum() == 0
        assert eng.count_of(Compartment.S) == params.population

    def test_cumulative_counters_match_trajectory(self, small_params):
        eng = BinomialLeapEngine(small_params, seed=6)
        traj = eng.run_until(40)
        assert eng.cumulative_infections == traj.infections.sum()
        assert eng.cumulative_deaths == traj.deaths.sum()

    def test_run_until_past_day_raises(self, small_params):
        eng = BinomialLeapEngine(small_params, seed=7)
        eng.run_until(10)
        with pytest.raises(ValueError, match="before current day"):
            eng.run_until(5)

    def test_run_until_same_day_is_empty(self, small_params):
        eng = BinomialLeapEngine(small_params, seed=7)
        eng.run_until(10)
        traj = eng.run_until(10)
        assert traj.n_days == 0


class TestDeterminism:
    def test_same_seed_same_trajectory(self, small_params):
        t1 = BinomialLeapEngine(small_params, seed=42).run_until(40)
        t2 = BinomialLeapEngine(small_params, seed=42).run_until(40)
        assert np.array_equal(t1.infections, t2.infections)
        assert np.array_equal(t1.deaths, t2.deaths)

    def test_different_seeds_differ(self, small_params):
        t1 = BinomialLeapEngine(small_params, seed=1).run_until(40)
        t2 = BinomialLeapEngine(small_params, seed=2).run_until(40)
        assert not np.array_equal(t1.infections, t2.infections)

    def test_trajectory_independent_of_run_chunking(self, small_params):
        """(theta, s) -> trajectory must not depend on how windows split."""
        whole = BinomialLeapEngine(small_params, seed=9).run_until(30)
        eng = BinomialLeapEngine(small_params, seed=9)
        first = eng.run_until(13)
        second = eng.run_until(30)
        merged = first.extended_by(second)
        assert np.array_equal(whole.infections, merged.infections)
        assert np.array_equal(whole.hospital_census, merged.hospital_census)


class TestThetaSchedule:
    def test_schedule_overrides_constant_rate(self, small_params):
        sched = PiecewiseConstant.constant(0.0)
        eng = BinomialLeapEngine(
            small_params.with_updates(transmission_rate=0.9), seed=1,
            theta_schedule=sched)
        traj = eng.run_until(20)
        assert traj.infections.sum() == 0

    def test_rate_drop_slows_growth(self, small_params):
        sched = PiecewiseConstant(breakpoints=(25,), values=(0.5, 0.0))
        eng = BinomialLeapEngine(small_params, seed=11, theta_schedule=sched)
        traj = eng.run_until(60)
        # After theta -> 0 the infectious pool drains; late incidence ~ 0.
        assert traj.infections[0, 45:].sum() < traj.infections[0, 15:25].sum()


class TestStepsPerDay:
    def test_invalid_steps_rejected(self, small_params):
        with pytest.raises(ValueError):
            BinomialLeapEngine(small_params, seed=1, steps_per_day=0)

    def test_finer_steps_similar_attack_rate(self, small_params):
        """Leap accuracy: total infections within ~15% between dt=1/2 and 1/8."""
        totals = {}
        for spd in (2, 8):
            runs = [BinomialLeapEngine(small_params, seed=s,
                                       steps_per_day=spd).run_until(50)
                    .infections.sum() for s in range(8)]
            totals[spd] = np.mean(runs)
        assert totals[8] == pytest.approx(totals[2], rel=0.15)


class TestSnapshot:
    """Restart from one row of a :class:`StackedLeapState` snapshot."""

    @staticmethod
    def snapshot(engine):
        return StackedLeapState(
            day=engine.day, steps_per_day=engine.steps_per_day,
            counts=engine.counts[None],
            cum_infections=np.array([engine.cumulative_infections]),
            cum_deaths=np.array([engine.cumulative_deaths]),
            seeds=np.array([engine.seed]), params=engine.params,
            thetas=np.array([engine.params.transmission_rate]))

    def test_reseeded_restart_diverges(self, small_params):
        eng = BinomialLeapEngine(small_params, seed=21)
        eng.run_until(20)
        snap = self.snapshot(eng)
        a = BinomialLeapEngine.from_state_row(snap, 0, 21).run_until(45)
        b = BinomialLeapEngine.from_state_row(snap, 0, 999).run_until(45)
        assert not np.array_equal(a.infections, b.infections)

    def test_restart_day_continuity(self, small_params):
        eng = BinomialLeapEngine(small_params, seed=3)
        eng.run_until(17)
        restored = BinomialLeapEngine.from_state_row(self.snapshot(eng), 0, 3)
        assert restored.day == 17
        assert restored.steps_per_day == eng.steps_per_day
        seg = restored.run_until(20)
        assert seg.start_day == 17
        assert seg.n_days == 3
