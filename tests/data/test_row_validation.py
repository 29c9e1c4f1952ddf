"""Observation validation: defect detection and the API gate."""

import math

import numpy as np
import pytest

from repro.data import (ObservationSet, ObservationSource, TimeSeries,
                        ObservationValidationError, find_defects,
                        find_row_defects, find_series_defects,
                        validate_observations)


def series(values, start=0, name="cases"):
    return TimeSeries(start, np.asarray(values, dtype=float), name=name)


def obs_set(values, name="cases"):
    return ObservationSet.of(ObservationSource(name, series(values, name=name)))


class TestFindSeriesDefects:
    def test_clean_series_has_no_defects(self):
        assert find_series_defects(series([1.0, 2.0, 0.0])) == []

    def test_nan_is_reported_with_day(self):
        defects = find_series_defects(series([1.0, math.nan, 3.0], start=10))
        assert len(defects) == 1
        assert defects[0].day == 11
        assert defects[0].reason == "nan_value"
        assert defects[0].stream == "cases"

    def test_negative_is_reported(self):
        (defect,) = find_series_defects(series([1.0, -4.0]))
        assert defect.reason == "negative_value"
        assert "-4.0" in defect.detail

    def test_infinity_is_reported(self):
        (defect,) = find_series_defects(series([math.inf, 1.0]))
        assert defect.reason == "non_finite_value"

    def test_explicit_name_overrides_series_name(self):
        (defect,) = find_series_defects(series([-1.0]), name="deaths")
        assert defect.stream == "deaths"


class TestValidateObservations:
    def test_clean_set_returned_unchanged(self):
        obs = obs_set([1.0, 2.0])
        assert validate_observations(obs) is obs

    def test_defective_set_raises_with_every_defect(self):
        obs = ObservationSet.of(
            ObservationSource("cases", series([1.0, math.nan])),
            ObservationSource("deaths", series([-2.0, 0.0], name="deaths"),
                              biased=False))
        with pytest.raises(ObservationValidationError) as err:
            validate_observations(obs)
        reasons = {(d.stream, d.reason) for d in err.value.defects}
        assert reasons == {("cases", "nan_value"), ("deaths", "negative_value")}
        assert "cases[day 1]" in str(err.value)

    def test_find_defects_orders_by_stream(self):
        obs = ObservationSet.of(
            ObservationSource("cases", series([math.nan])),
            ObservationSource("deaths", series([-1.0], name="deaths"),
                              biased=False))
        defects = find_defects(obs)
        assert [d.stream for d in defects] == ["cases", "deaths"]

    def test_defect_round_trips_to_dict(self):
        (defect,) = find_defects(obs_set([-3.0]))
        d = defect.to_dict()
        assert d == {"stream": "cases", "day": 0,
                     "reason": "negative_value", "detail": d["detail"]}


class TestFindRowDefects:
    def test_accepts_parseable_clean_rows(self):
        accepted, defects = find_row_defects("cases", [(0, "3"), ("1", 4.5)])
        assert accepted == [(0, 3.0), (1, 4.5)]
        assert defects == []

    def test_malformed_day_and_value_are_quarantined(self):
        accepted, defects = find_row_defects(
            "cases", [("not-a-day", 1.0), (2, "oops"), (3, 5.0)])
        assert accepted == [(3, 5.0)]
        assert [d.reason for d in defects] == ["malformed", "malformed"]
        assert defects[0].day is None
        assert defects[1].day == 2

    def test_duplicates_within_batch_and_against_seen(self):
        accepted, defects = find_row_defects(
            "cases", [(5, 1.0), (5, 2.0), (6, 3.0)], seen_days=[6])
        assert accepted == [(5, 1.0)]
        assert [d.reason for d in defects] == ["duplicate_day",
                                               "duplicate_day"]

    def test_bad_values_are_quarantined_not_accepted(self):
        accepted, defects = find_row_defects(
            "cases", [(0, math.nan), (1, -2.0), (2, math.inf), (3, 1.0)])
        assert accepted == [(3, 1.0)]
        assert [d.reason for d in defects] == [
            "nan_value", "negative_value", "non_finite_value"]


class TestApiGate:
    def test_calibrate_rejects_defective_observations(self):
        from repro.inference import calibrate
        with pytest.raises(ObservationValidationError):
            calibrate(obs_set([1.0, math.nan, 2.0]))
