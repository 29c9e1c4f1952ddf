"""Unit tests for disease parameters and their column form."""

import numpy as np
import pytest

from repro.seir import (DiseaseParameters, chicago_defaults,
                        check_parameter_columns, parameter_columns)


def scalar_error(**fields):
    """The message ``DiseaseParameters(**fields)`` raises."""
    with pytest.raises(ValueError) as info:
        DiseaseParameters(**fields)
    return str(info.value)


class TestParameterColumns:
    """Columns follow the DiseaseParameters rules, first bad row first."""

    def test_base_broadcast_keeps_field_dtypes(self):
        base = DiseaseParameters(population=50_000, initial_exposed=100)
        columns = parameter_columns(base, 3)
        assert list(columns) == list(base.to_dict())
        assert columns["population"].dtype == np.int64
        assert columns["mild_fraction"].dtype == np.float64
        assert all(np.all(columns[name] == value)
                   for name, value in base.to_dict().items())

    def test_updates_overwrite_as_float64(self):
        columns = parameter_columns(DiseaseParameters(), 2,
                                    {"transmission_rate": [0.2, 0.4]})
        assert columns["transmission_rate"].tolist() == [0.2, 0.4]
        assert columns["transmission_rate"].dtype == np.float64

    def test_negative_transmission_rate_message(self):
        with pytest.raises(ValueError) as info:
            parameter_columns(DiseaseParameters(), 3,
                              {"transmission_rate": [0.3, -0.1, 0.2]})
        assert str(info.value) == scalar_error(transmission_rate=-0.1)

    def test_fraction_message_names_first_bad_value(self):
        with pytest.raises(ValueError) as info:
            parameter_columns(DiseaseParameters(), 4,
                              {"mild_fraction": [0.9, 1.25, -0.5, 1.5]})
        assert str(info.value) == scalar_error(mild_fraction=1.25)

    def test_first_bad_row_wins_over_rule_order(self):
        """Row 0 breaks a later rule than row 1: row 0's message wins, as a
        per-member DiseaseParameters loop would raise it first."""
        with pytest.raises(ValueError) as info:
            parameter_columns(DiseaseParameters(), 2, {
                "transmission_rate": [0.3, -1.0],
                "detected_rel_infectiousness": [2.0, 0.1]})
        assert str(info.value) == scalar_error(
            detected_rel_infectiousness=2.0)

    @pytest.mark.parametrize("fields", [
        {"population": 0}, {"initial_exposed": -1},
        {"population": 10, "initial_exposed": 11},
        {"latent_period_days": 0.0}, {"icu_period_days": float("inf")},
        {"death_fraction": float("nan")}, {"critical_fraction": 1.01}])
    def test_every_rule_matches_the_scalar_message(self, fields):
        columns = {**DiseaseParameters().to_dict(), **fields}
        with pytest.raises(ValueError) as info:
            check_parameter_columns(
                {name: np.array([value, value])
                 for name, value in columns.items()})
        assert str(info.value) == scalar_error(**fields)

    def test_valid_columns_pass(self):
        check_parameter_columns(parameter_columns(
            DiseaseParameters(), 5,
            {"mild_fraction": np.linspace(0.0, 1.0, 5)}))


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
        assert DiseaseParameters.from_dict(p.to_dict()) == p

    def test_from_dict_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            DiseaseParameters.from_dict({"not_a_field": 1})
