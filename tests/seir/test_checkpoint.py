"""Unit tests for restart state and restart semantics (paper section III-B).

A :class:`StackedLeapState` row is the one checkpoint format; the scalar
engine restarts one row on its new seed's fresh stream
(:meth:`repro.testing.BinomialLeapEngine.from_state_row`).
"""

import dataclasses

import numpy as np
import pytest

from repro.seir import (RESTART_FIELDS, BatchedBinomialLeapEngine,
                        CheckpointError, DiseaseParameters, StackedLeapState)
from repro.testing import BinomialLeapEngine, population_conserved


def checkpointed_state(params, seed=31, day=15, n=4):
    """``n`` members run to ``day``, as restart rows with parameters."""
    engine = BatchedBinomialLeapEngine(params, np.arange(n) + seed)
    engine.run_until(day)
    return StackedLeapState(
        day=engine.day, steps_per_day=engine.steps_per_day,
        counts=engine.counts, cum_infections=engine.cumulative_infections,
        cum_deaths=engine.cumulative_deaths,
        seeds=engine.seeds, params=params, thetas=engine.thetas)


class TestRestartFields:
    def test_restart_fields_are_parameter_fields(self):
        fields = DiseaseParameters().to_dict()
        assert len(RESTART_FIELDS) == 5
        assert set(RESTART_FIELDS) <= set(fields)
        # In field order, the order columns and stores use.
        assert list(RESTART_FIELDS) == [f for f in fields
                                        if f in RESTART_FIELDS]

    def test_rows_without_parameters_refuse_to_restart(self, small_params):
        state = checkpointed_state(small_params)
        bare = dataclasses.replace(state.take([0]), params=None, thetas=None)
        with pytest.raises(CheckpointError, match="no stored parameters"):
            BinomialLeapEngine.from_state_row(bare, 0, seed=1)


class TestRestartSemantics:
    def test_restart_with_new_theta_changes_dynamics(self, small_params):
        state = checkpointed_state(small_params)
        base = BinomialLeapEngine.from_state_row(state, 0, 7).run_until(50)
        hot_state = dataclasses.replace(state, thetas=np.full(4, 0.9))
        hot = BinomialLeapEngine.from_state_row(hot_state, 0, 7).run_until(50)
        assert hot.infections.sum() > base.infections.sum()

    def test_restart_with_new_seed_diverges(self, small_params):
        state = checkpointed_state(small_params)
        a = BinomialLeapEngine.from_state_row(state, 0, 1).run_until(45)
        b = BinomialLeapEngine.from_state_row(state, 0, 2).run_until(45)
        assert not np.array_equal(a.infections, b.infections)

    def test_restart_preserves_compartment_counts(self, small_params):
        state = checkpointed_state(small_params)
        restored = BinomialLeapEngine.from_state_row(state, 2, 5)
        assert restored.day == state.day
        assert np.array_equal(restored.counts, state.counts[2])
        assert restored.cumulative_infections == state.cum_infections[2]
        assert restored.cumulative_deaths == state.cum_deaths[2]
        assert population_conserved(restored)

    def test_restart_is_deterministic_in_the_new_seed(self, small_params):
        state = checkpointed_state(small_params)
        a = BinomialLeapEngine.from_state_row(state, 1, 9).run_until(30)
        b = BinomialLeapEngine.from_state_row(state, 1, 9).run_until(30)
        assert np.array_equal(a.infections, b.infections)
        assert np.array_equal(a.deaths, b.deaths)
