"""Unit tests for the TimeSeries container."""

import numpy as np
import pytest

from repro.data import TimeSeries


def make(start=0, values=(1.0, 2.0, 3.0), name="cases"):
    return TimeSeries(start, np.array(values), name=name)


class TestConstruction:
    def test_values_stored_as_float64(self):
        ts = TimeSeries(0, [1, 2, 3])
        assert ts.values.dtype == np.float64

    def test_values_are_readonly(self):
        ts = make()
        with pytest.raises(ValueError):
            ts.values[0] = 99.0

    def test_rejects_2d_values(self):
        with pytest.raises(ValueError, match="1-d"):
            TimeSeries(0, np.zeros((2, 2)))

    def test_accepts_generic_iterable(self):
        ts = TimeSeries(3, (x for x in [1.0, 2.0]))
        assert len(ts) == 2

    def test_zeros_constructor(self):
        ts = TimeSeries.zeros(5, 4, name="deaths")
        assert ts.start_day == 5
        assert ts.total() == 0.0
        assert ts.name == "deaths"

    def test_zeros_rejects_negative_length(self):
        with pytest.raises(ValueError):
            TimeSeries.zeros(0, -1)

    def test_empty_series_allowed(self):
        ts = TimeSeries(0, [])
        assert len(ts) == 0
        assert ts.end_day == 0


class TestIndexing:
    def test_day_axis(self):
        ts = make(start=10)
        assert list(ts.days) == [10, 11, 12]
        assert ts.end_day == 13

    def test_value_on(self):
        ts = make(start=10)
        assert ts.value_on(11) == 2.0

    def test_value_on_out_of_range(self):
        ts = make(start=10)
        with pytest.raises(KeyError):
            ts.value_on(13)
        with pytest.raises(KeyError):
            ts.value_on(9)


class TestWindowing:
    def test_window_basic(self):
        ts = make(start=10)
        w = ts.window(11, 13)
        assert w.start_day == 11
        assert list(w.values) == [2.0, 3.0]

    def test_window_full_range(self):
        ts = make(start=10)
        assert ts.window(10, 13) == ts

    def test_window_out_of_range_raises(self):
        ts = make(start=10)
        with pytest.raises(ValueError, match="not contained"):
            ts.window(9, 12)
        with pytest.raises(ValueError, match="not contained"):
            ts.window(10, 14)

    def test_window_reversed_raises(self):
        ts = make(start=10)
        with pytest.raises(ValueError):
            ts.window(12, 11)

    def test_head(self):
        ts = TimeSeries(0, np.arange(10.0))
        assert list(ts.head(3).values) == [0.0, 1.0, 2.0]
        assert ts.head(20) == ts


class TestEquality:
    def test_equality_and_hash(self):
        assert make() == make()
        assert hash(make()) == hash(make())
        assert make() != make(start=1)

