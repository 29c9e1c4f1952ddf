"""Unit tests for the batched ensemble engine.

Scalar/batched parity is asserted *distributionally* (matched moments of
the output channels under common parameters), per the batch RNG contract:
the shared batch stream makes per-member draws depend on the batch
composition, so bit-level agreement with the scalar oracle is out of scope
by design.
"""

import numpy as np
import pytest

from repro.seir import (BatchedBinomialLeapEngine, BatchTrajectory,
                        Compartment, DiseaseParameters, StackedLeapState,
                        generator_for)
from repro.seir.seeding import rng_state_to_jsonable
from repro.testing import BinomialLeapEngine, population_conserved


@pytest.fixture
def batch(small_params):
    return BatchedBinomialLeapEngine(small_params, np.arange(50),
                                     thetas=np.full(50, 0.3))


def restart_state(engine):
    """The batch's rows as restart state under the batch's parameters, each
    row at its own theta (what a shard returns and an ensemble carries)."""
    return StackedLeapState(
        day=engine.day, steps_per_day=engine.steps_per_day,
        counts=engine.counts, cum_infections=engine.cumulative_infections,
        cum_deaths=engine.cumulative_deaths, seeds=engine.seeds,
        params=engine.params, thetas=engine.thetas)


class TestConstruction:
    def test_initial_state(self, small_params, batch):
        assert batch.day == 0
        assert batch.n_particles == 50
        counts = batch.counts
        assert counts.shape == (50, 20)
        assert np.all(counts[:, Compartment.S]
                      == small_params.population - 40)
        assert np.all(counts[:, Compartment.E] == 40)

    def test_empty_seed_vector_rejected(self, small_params):
        with pytest.raises(ValueError, match="seeds"):
            BatchedBinomialLeapEngine(small_params, [])

    def test_theta_length_mismatch_rejected(self, small_params):
        with pytest.raises(ValueError, match="thetas"):
            BatchedBinomialLeapEngine(small_params, [1, 2, 3],
                                      thetas=[0.3, 0.4])

    def test_negative_theta_means_no_infections(self, small_params):
        """Parity with the scalar oracle's `if lam > 0` guard."""
        bt = BatchedBinomialLeapEngine(
            small_params, [1, 2], thetas=[-0.1, 0.4]).run_until(20)
        assert bt.infections[0].sum() == 0
        assert bt.infections[1].sum() > 0

    def test_non_finite_theta_rejected(self, small_params):
        with pytest.raises(ValueError, match="thetas"):
            BatchedBinomialLeapEngine(small_params, [1, 2],
                                      thetas=[0.3, np.nan])

    def test_invalid_steps_rejected(self, small_params):
        with pytest.raises(ValueError):
            BatchedBinomialLeapEngine(small_params, [1], steps_per_day=0)

    def test_thetas_default_to_params_rate(self, small_params):
        eng = BatchedBinomialLeapEngine(small_params, [1, 2, 3])
        assert np.allclose(eng.thetas, small_params.transmission_rate)

    def test_thetas_setter_validates(self, small_params):
        eng = BatchedBinomialLeapEngine(small_params, [1, 2])
        for bad in ([0.3], [0.3, 0.4, 0.5], [[0.3, 0.4]], [0.3, np.inf],
                    [np.nan, 0.4]):
            with pytest.raises(ValueError, match="thetas"):
                eng.thetas = bad
        assert np.allclose(eng.thetas, small_params.transmission_rate)
        eng.thetas = [0.25, 0.5]
        np.testing.assert_array_equal(eng.thetas, [0.25, 0.5])


class TestDynamics:
    def test_population_conserved_over_run(self, batch):
        batch.run_until(40)
        assert population_conserved(batch)

    def test_step_day_returns_one_int64_count_per_member(self, batch):
        for _ in range(10):
            infections, deaths = batch.step_day()
            for counts in (infections, deaths):
                assert counts.shape == (batch.n_particles,)
                assert counts.dtype == np.int64

    def test_counts_never_negative(self, batch):
        for _ in range(40):
            batch.step_day()
            assert np.all(batch.counts >= 0)

    def test_cumulative_counters_match_outputs(self, batch):
        bt = batch.run_until(30)
        assert np.array_equal(batch.cumulative_infections,
                              bt.infections.sum(axis=1))
        assert np.array_equal(batch.cumulative_deaths,
                              bt.deaths.sum(axis=1))

    def test_zero_transmission_no_infections(self, small_params):
        eng = BatchedBinomialLeapEngine(small_params, np.arange(10),
                                        thetas=np.zeros(10))
        bt = eng.run_until(20)
        assert bt.infections.sum() == 0

    def test_per_member_thetas_are_independent(self, small_params):
        """A zero-theta member must stay uninfected while others grow."""
        thetas = np.full(20, 0.4)
        thetas[0] = 0.0
        bt = BatchedBinomialLeapEngine(small_params, np.arange(20),
                                       thetas=thetas).run_until(40)
        assert bt.infections[0].sum() == 0
        assert bt.infections[1:].sum() > 0

    def test_run_until_past_day_raises(self, batch):
        batch.run_until(10)
        with pytest.raises(ValueError, match="before current day"):
            batch.run_until(5)

    def test_run_until_same_day_is_empty(self, batch):
        batch.run_until(10)
        assert batch.run_until(10).n_days == 0


class TestDeterminism:
    def test_same_seed_vector_same_batch(self, small_params):
        a = BatchedBinomialLeapEngine(small_params, np.arange(30)).run_until(25)
        b = BatchedBinomialLeapEngine(small_params, np.arange(30)).run_until(25)
        assert np.array_equal(a.infections, b.infections)
        assert np.array_equal(a.deaths, b.deaths)

    def test_permuted_seed_vector_rekeys_stream(self, small_params):
        seeds = np.arange(30)
        a = BatchedBinomialLeapEngine(small_params, seeds).run_until(25)
        b = BatchedBinomialLeapEngine(small_params, seeds[::-1]).run_until(25)
        # Same member seed, different batch order -> different draws.
        assert not np.array_equal(a.infections[0], b.infections[29])


class TestScalarParity:
    """Fixed-seed moment matching against the scalar reference oracle."""

    N = 400
    HORIZON = 25

    @pytest.fixture(scope="class")
    def paired(self):
        params = DiseaseParameters(population=20_000, initial_exposed=40)
        seeds = np.arange(self.N)
        batched = BatchedBinomialLeapEngine(
            params, seeds, thetas=np.full(self.N, 0.3)).run_until(self.HORIZON)
        scalar = BatchTrajectory.concatenate([
            BinomialLeapEngine(params, seed=int(seed)).run_until(self.HORIZON)
            for seed in seeds])
        return batched, scalar

    def test_mean_daily_infections_match(self, paired):
        batched, scalar = paired
        np.testing.assert_allclose(batched.infections.mean(axis=0),
                                   scalar.infections.mean(axis=0),
                                   rtol=0.15, atol=3.0)

    def test_mean_total_infections_match(self, paired):
        batched, scalar = paired
        np.testing.assert_allclose(batched.infections.sum(axis=1).mean(),
                                   scalar.infections.sum(axis=1).mean(),
                                   rtol=0.05)

    def test_variance_total_infections_match(self, paired):
        batched, scalar = paired
        np.testing.assert_allclose(batched.infections.sum(axis=1).var(),
                                   scalar.infections.sum(axis=1).var(),
                                   rtol=0.4)

    def test_mean_total_deaths_match(self, paired):
        batched, scalar = paired
        b = batched.deaths.sum(axis=1).mean()
        s = scalar.deaths.sum(axis=1).mean()
        assert b == pytest.approx(s, rel=0.25, abs=0.5)

    def test_mean_census_curves_match(self, paired):
        batched, scalar = paired
        np.testing.assert_allclose(batched.hospital_census.mean(axis=0),
                                   scalar.hospital_census.mean(axis=0),
                                   rtol=0.25, atol=2.0)
        np.testing.assert_allclose(batched.icu_census.mean(axis=0),
                                   scalar.icu_census.mean(axis=0),
                                   rtol=0.35, atol=2.0)


class TestBatchTrajectory:
    def test_trajectory_extraction(self, batch):
        bt = batch.run_until(20)
        traj = bt.take([3])
        assert traj.start_day == 0
        assert traj.end_day == 20
        assert np.array_equal(traj.infections, bt.infections[3:4])

    def test_window_slicing(self, batch):
        bt = batch.run_until(20)
        win = bt.window(5, 12)
        assert win.start_day == 5 and win.end_day == 12
        assert np.array_equal(win.deaths, bt.deaths[:, 5:12])
        with pytest.raises(ValueError, match="window"):
            bt.window(5, 25)

    def test_channel_matrix_roundtrip(self, batch):
        from repro.data import CASES
        bt = batch.run_until(10)
        assert bt.channel_matrix(CASES) is bt.infections
        with pytest.raises(KeyError):
            bt.channel_matrix("bogus")


class TestSnapshots:
    """One row of a batch's restart state restarts the scalar engine
    through ``BinomialLeapEngine.from_state_row``."""

    def test_reseeded_batch_restart_diverges(self, small_params):
        eng = BatchedBinomialLeapEngine(small_params, np.arange(40))
        eng.run_until(15)
        state = restart_state(eng)
        a = BatchedBinomialLeapEngine.from_particle_snapshots(
            state, small_params, seeds=np.arange(40)).run_until(35)
        b = BatchedBinomialLeapEngine.from_particle_snapshots(
            state, small_params, seeds=np.arange(40) + 999).run_until(35)
        assert not np.array_equal(a.infections, b.infections)

    def test_particle_snapshot_feeds_scalar_engine(self, small_params, batch):
        batch.run_until(12)
        scalar = BinomialLeapEngine.from_state_row(restart_state(batch), 4,
                                                   seed=4)
        assert scalar.day == 12
        assert np.array_equal(scalar.counts, batch.counts[4])
        assert scalar.cumulative_infections == batch.cumulative_infections[4]
        seg = scalar.run_until(16)
        assert seg.start_day == 12 and seg.n_days == 4

    def test_particle_snapshot_stream_derives_from_seed(self, small_params,
                                                        batch):
        """Restart state records no RNG state; the scalar restart begins
        the seed's fresh stream."""
        batch.run_until(12)
        state = restart_state(batch)
        restarted = BinomialLeapEngine.from_state_row(state, 4, seed=123)
        assert rng_state_to_jsonable(restarted._rng) == \
            rng_state_to_jsonable(generator_for(123))

    def test_particle_checkpoint_carries_member_theta(self, small_params):
        thetas = np.linspace(0.2, 0.4, 10)
        eng = BatchedBinomialLeapEngine(small_params, np.arange(10),
                                        thetas=thetas)
        eng.run_until(8)
        scalar = BinomialLeapEngine.from_state_row(restart_state(eng), 7,
                                                   seed=7)
        assert scalar.params.transmission_rate == pytest.approx(thetas[7])
        assert scalar.day == 8
        scalar.run_until(12)
        assert scalar.day == 12


class TestBatchRestartRoundTrip:
    def test_particle_snapshots_roundtrip_to_batch(self, small_params):
        eng = BatchedBinomialLeapEngine(small_params, np.arange(30))
        eng.run_until(14)
        restarted = BatchedBinomialLeapEngine.from_particle_snapshots(
            restart_state(eng), small_params, seeds=np.arange(30) + 500)
        assert restarted.day == 14
        assert np.array_equal(restarted.counts, eng.counts)
        assert np.array_equal(restarted.cumulative_infections,
                              eng.cumulative_infections)
        seg = restarted.run_until(20)
        assert seg.start_day == 14 and seg.n_days == 6
        assert population_conserved(restarted)

    def test_restart_is_deterministic_in_new_seeds(self, small_params):
        eng = BatchedBinomialLeapEngine(small_params, np.arange(20))
        eng.run_until(10)
        state = restart_state(eng)
        new_seeds = np.arange(20) + 77
        a = BatchedBinomialLeapEngine.from_particle_snapshots(
            state, small_params, seeds=new_seeds).run_until(20)
        b = BatchedBinomialLeapEngine.from_particle_snapshots(
            state, small_params, seeds=new_seeds).run_until(20)
        assert np.array_equal(a.infections, b.infections)

