"""Unit tests for disease parameters and their column form.

Per-row parameter columns exist only in a stored window's
``checkpoints.npz``: one ``param_<field>`` column per field, the theta
column varying and every other column repeating the window's one record.
"""

import numpy as np
import pytest

from repro.hpc import CheckpointStore
from repro.seir import (N_COMPARTMENTS, CheckpointError, DiseaseParameters,
                        StackedLeapState, chicago_defaults)
from repro.seir.parameters import check_thetas

BASE = DiseaseParameters(population=50_000, initial_exposed=100)


def scalar_error(**fields):
    """The message ``DiseaseParameters(**fields)`` raises."""
    with pytest.raises(ValueError) as info:
        DiseaseParameters(**fields)
    return str(info.value)


def stored_window(root, n, thetas=None, columns=None):
    """Store ``n`` restart rows under ``BASE`` (with ``thetas``, default
    0.3 each), rewrite their ``param_<field>`` columns with ``columns``
    (field -> ``(n,)`` values), and return the file's columns and the
    store."""
    state = StackedLeapState(
        day=5, steps_per_day=4,
        counts=np.zeros((n, N_COMPARTMENTS), dtype=np.int64),
        cum_infections=np.zeros(n, dtype=np.int64),
        cum_deaths=np.zeros(n, dtype=np.int64),
        seeds=np.arange(n, dtype=np.int64), params=BASE,
        thetas=np.full(n, 0.3) if thetas is None
        else np.asarray(thetas, dtype=np.float64))
    store = CheckpointStore(root)
    store.save_window_state(0, state, {})
    path = root / "window_000" / "checkpoints.npz"
    with np.load(path) as npz:
        stored = {name: npz[name] for name in npz.files}
    stored.update({f"param_{name}": np.asarray(values)
                   for name, values in (columns or {}).items()})
    with open(path, "wb") as fh:
        np.savez(fh, **stored)
    return stored, store


def load_error(root, n, thetas=None, columns=None):
    """The ``ValueError`` a stored window with these columns fails on."""
    _, store = stored_window(root, n, thetas, columns)
    with pytest.raises(CheckpointError) as info:
        store.load_window_state(0)
    return str(info.value.__cause__)


class TestParameterColumns:
    """Columns follow the DiseaseParameters rules, first bad row first."""

    def test_base_broadcast_keeps_field_dtypes(self, tmp_path):
        columns, store = stored_window(tmp_path, 3)
        assert [name for name in columns if name.startswith("param_")] == \
            [f"param_{name}" for name in BASE.to_dict()]
        assert columns["param_population"].dtype == np.int64
        assert columns["param_mild_fraction"].dtype == np.float64
        assert all(np.all(columns[f"param_{name}"] == value)
                   for name, value in BASE.to_dict().items()
                   if name != "transmission_rate")
        assert store.load_window_state(0)[0].params.with_updates(
            transmission_rate=BASE.transmission_rate) == BASE

    def test_updates_overwrite_as_float64(self, tmp_path):
        columns, _ = stored_window(tmp_path, 2, thetas=[0.2, 0.4])
        assert columns["param_transmission_rate"].tolist() == [0.2, 0.4]
        assert columns["param_transmission_rate"].dtype == np.float64

    def test_negative_transmission_rate_message(self):
        with pytest.raises(ValueError) as info:
            check_thetas(np.array([0.3, -0.1, 0.2]))
        assert str(info.value) == scalar_error(transmission_rate=-0.1)

    def test_fraction_message_names_first_bad_value(self, tmp_path):
        assert load_error(tmp_path, 4, columns={
            "mild_fraction": np.full(4, 1.25)}) == \
            scalar_error(mild_fraction=1.25)

    def test_first_bad_row_wins_over_rule_order(self, tmp_path):
        """Row 0 breaks a later rule than row 1: row 0's message wins, as a
        per-member DiseaseParameters loop would raise it first."""
        assert load_error(tmp_path, 2, thetas=[0.3, -1.0], columns={
            "detected_rel_infectiousness": np.full(2, 2.0)}) == \
            scalar_error(detected_rel_infectiousness=2.0)

    @pytest.mark.parametrize("fields", [
        {"population": 0}, {"initial_exposed": -1},
        {"population": 10, "initial_exposed": 11},
        {"latent_period_days": 0.0}, {"icu_period_days": float("inf")},
        {"death_fraction": float("nan")}, {"critical_fraction": 1.01}])
    def test_every_rule_matches_the_scalar_message(self, tmp_path, fields):
        assert load_error(tmp_path, 2, columns={
            name: np.array([value, value])
            for name, value in fields.items()}) == scalar_error(**fields)

    def test_valid_columns_pass(self, tmp_path):
        _, store = stored_window(tmp_path, 5,
                                 thetas=np.linspace(0.0, 1.0, 5))
        loaded, _ = store.load_window_state(0)
        assert loaded.thetas.tolist() == np.linspace(0.0, 1.0, 5).tolist()
        assert loaded.params.mild_fraction == BASE.mild_fraction


class TestDiseaseParameters:
    def test_defaults_valid(self):
        p = DiseaseParameters()
        assert p.population == 2_700_000
        assert 0 < p.transmission_rate < 1

    def test_with_updates(self):
        p = DiseaseParameters().with_updates(transmission_rate=0.4)
        assert p.transmission_rate == 0.4
        assert DiseaseParameters().transmission_rate != 0.4  # frozen original

    def test_chicago_defaults_with_kwargs(self):
        p = chicago_defaults(population=1000)
        assert p.population == 1000

    def test_invalid_population(self):
        with pytest.raises(ValueError):
            DiseaseParameters(population=0)

    def test_population_fits_int32_channels(self):
        """Every daily count and census is at most the population, so a
        population past int32 could overflow a trajectory channel."""
        assert DiseaseParameters(population=2**31 - 1).population == 2**31 - 1
        with pytest.raises(ValueError, match="population must be in"):
            DiseaseParameters(population=2**31)

    def test_initial_exposed_bounds(self):
        with pytest.raises(ValueError):
            DiseaseParameters(population=100, initial_exposed=101)
        with pytest.raises(ValueError):
            DiseaseParameters(initial_exposed=-1)

    def test_negative_transmission_rejected(self):
        with pytest.raises(ValueError):
            DiseaseParameters(transmission_rate=-0.1)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError, match="latent_period_days"):
            DiseaseParameters(latent_period_days=0.0)

    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="mild_fraction"):
            DiseaseParameters(mild_fraction=1.5)

    def test_round_trip(self):
        p = DiseaseParameters(transmission_rate=0.37)
        assert DiseaseParameters(**p.to_dict()) == p
