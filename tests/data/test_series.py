"""Unit tests for the TimeSeries container."""

import numpy as np
import pytest

from repro.data import TimeSeries, align, concat


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

    def test_iteration(self):
        assert list(make()) == [1.0, 2.0, 3.0]


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

    def test_head_tail(self):
        ts = TimeSeries(0, np.arange(10.0))
        assert list(ts.head(3).values) == [0.0, 1.0, 2.0]
        assert list(ts.tail(2).values) == [8.0, 9.0]

    def test_aligned_with(self):
        a = TimeSeries(0, np.arange(10.0))
        b = TimeSeries(5, np.arange(10.0))
        a2, b2 = a.aligned_with(b)
        assert a2.start_day == b2.start_day == 5
        assert len(a2) == len(b2) == 5

    def test_aligned_with_disjoint_raises(self):
        a = TimeSeries(0, [1.0, 2.0])
        b = TimeSeries(10, [1.0])
        with pytest.raises(ValueError, match="overlap"):
            a.aligned_with(b)


class TestArithmetic:
    def test_add_series(self):
        out = make() + make()
        assert list(out.values) == [2.0, 4.0, 6.0]

    def test_add_scalar(self):
        out = make() + 1
        assert list(out.values) == [2.0, 3.0, 4.0]

    def test_subtract(self):
        out = make() - make()
        assert out.total() == 0.0

    def test_multiply_scalar(self):
        out = make() * 2.0
        assert list(out.values) == [2.0, 4.0, 6.0]

    def test_divide(self):
        out = make() / 2.0
        assert list(out.values) == [0.5, 1.0, 1.5]

    def test_misaligned_add_raises(self):
        with pytest.raises(ValueError, match="not aligned"):
            make(start=0) + make(start=1)

    def test_map_preserves_length(self):
        out = make().map(np.sqrt)
        assert np.allclose(out.values, np.sqrt([1.0, 2.0, 3.0]))

    def test_map_length_change_rejected(self):
        with pytest.raises(ValueError):
            make().map(lambda v: v[:-1])

    def test_equality_and_hash(self):
        assert make() == make()
        assert hash(make()) == hash(make())
        assert make() != make(start=1)


class TestAggregations:
    def test_total_mean_max_min(self):
        ts = make()
        assert ts.total() == 6.0
        assert ts.mean() == 2.0
        assert ts.max() == 3.0
        assert ts.min() == 1.0

    def test_cumulative(self):
        out = make().cumulative()
        assert list(out.values) == [1.0, 3.0, 6.0]

    def test_diff_inverts_cumulative(self):
        ts = TimeSeries(0, [3.0, 1.0, 4.0, 1.0, 5.0])
        round_trip = ts.cumulative().diff()
        assert np.allclose(round_trip.values, ts.values)

    def test_shift(self):
        ts = make(start=0).shift(5)
        assert ts.start_day == 5
        assert list(ts.values) == [1.0, 2.0, 3.0]


class TestSerialisation:
    def test_round_trip(self):
        ts = make(start=7)
        assert TimeSeries.from_dict(ts.to_dict()) == ts

    def test_dict_is_json_safe(self):
        import json
        json.dumps(make().to_dict())


class TestModuleHelpers:
    def test_align_restricts_to_common_range(self):
        a = TimeSeries(0, np.arange(10.0))
        b = TimeSeries(3, np.arange(10.0))
        c = TimeSeries(5, np.arange(3.0))
        out = align([a, b, c])
        assert all(s.start_day == 5 and s.end_day == 8 for s in out)

    def test_align_empty_list(self):
        assert align([]) == []

    def test_align_disjoint_raises(self):
        with pytest.raises(ValueError):
            align([TimeSeries(0, [1.0]), TimeSeries(5, [1.0])])

    def test_concat_adjacent(self):
        a = TimeSeries(0, [1.0, 2.0])
        b = TimeSeries(2, [3.0])
        out = concat(a, b)
        assert list(out.values) == [1.0, 2.0, 3.0]
        assert out.start_day == 0

    def test_concat_gap_raises(self):
        a = TimeSeries(0, [1.0])
        b = TimeSeries(2, [1.0])
        with pytest.raises(ValueError, match="cannot concat"):
            concat(a, b)
