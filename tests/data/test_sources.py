"""Unit tests for observation sources and sets."""

import numpy as np
import pytest

from repro.data import (CASES, DEATHS, ObservationSet, ObservationSource,
                        TimeSeries)


def source(name="cases", start=0, n=10, channel=CASES, biased=True):
    return ObservationSource(name, TimeSeries(start, np.arange(float(n))),
                             channel=channel, biased=biased)


class TestObservationSource:
    def test_basic_fields(self):
        s = source()
        assert s.name == "cases"
        assert s.channel == CASES
        assert s.biased

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError, match="unknown channel"):
            source(channel="icecream")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            source(name="")

    def test_window(self):
        s = source(n=10).window(2, 5)
        assert s.series.start_day == 2
        assert len(s.series) == 3
        assert s.name == "cases"


class TestObservationSet:
    def test_of_constructor_and_lookup(self):
        obs = ObservationSet.of(source(), source(name="deaths", channel=DEATHS))
        assert len(obs) == 2
        assert "cases" in obs
        assert obs["deaths"].channel == DEATHS

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ObservationSet.of(source(), source())

    def test_missing_lookup_raises(self):
        obs = ObservationSet.of(source())
        with pytest.raises(KeyError):
            obs["deaths"]

    def test_names_order_preserved(self):
        obs = ObservationSet.of(source(name="b"), source(name="a"))
        assert obs.names == ("b", "a")

    def test_common_day_range(self):
        obs = ObservationSet.of(source(start=0, n=10),
                                source(name="deaths", start=5, n=10,
                                       channel=DEATHS))
        assert obs.start_day == 5
        assert obs.end_day == 10

    def test_empty_set_range_raises(self):
        obs = ObservationSet.of()
        with pytest.raises(ValueError):
            _ = obs.start_day

    def test_window_slices_every_stream(self):
        obs = ObservationSet.of(source(n=10),
                                source(name="deaths", n=10, channel=DEATHS))
        w = obs.window(2, 6)
        assert all(s.series.start_day == 2 and len(s.series) == 4 for s in w)
