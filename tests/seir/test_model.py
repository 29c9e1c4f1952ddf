"""Unit tests for the StochasticSEIRModel facade."""

import numpy as np
import pytest

from repro.seir import BinomialLeapEngine, StochasticSEIRModel


class TestFacade:
    def test_default_engine_is_binomial_leap(self, small_params):
        model = StochasticSEIRModel(small_params, 1)
        assert isinstance(model._engine, BinomialLeapEngine)
        assert model.checkpoint().engine_name == "binomial_leap"

    def test_engine_options_forwarded(self, small_params):
        model = StochasticSEIRModel(small_params, 1, steps_per_day=2)
        assert model._engine.steps_per_day == 2

    def test_history_accumulates(self, small_params):
        model = StochasticSEIRModel(small_params, 1)
        assert model.history is None
        model.run_until(10)
        model.run_until(25)
        assert model.history is not None
        assert model.history.start_day == 0
        assert len(model.history) == 25

    def test_run_window_requires_current_position(self, small_params):
        model = StochasticSEIRModel(small_params, 1)
        model.run_until(10)
        with pytest.raises(ValueError, match="cannot run window"):
            model.run_window(12, 20)
        seg = model.run_window(10, 20)
        assert seg.start_day == 10

    def test_properties_delegate(self, small_params):
        model = StochasticSEIRModel(small_params, 77)
        assert model.seed == 77
        assert model.params == small_params
        assert model.day == 0
        model.run_until(5)
        assert model.day == 5
        assert model.population_conserved()

    def test_facade_matches_engine_output(self, small_params):
        direct = BinomialLeapEngine(small_params, seed=5).run_until(30)
        via_model = StochasticSEIRModel(small_params, 5).run_until(30)
        assert np.array_equal(direct.infections, via_model.infections)
