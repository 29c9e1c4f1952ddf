"""Unit tests for Trajectory records."""

import numpy as np
import pytest

from repro.data.sources import CASES, DEATHS, HOSPITAL_CENSUS, ICU_CENSUS
from repro.seir import Trajectory
from repro.testing import TrajectoryBuilder


def make_trajectory(start=0, n=5):
    return Trajectory(start,
                      infections=np.arange(n, dtype=float),
                      deaths=np.zeros(n),
                      hospital_census=np.full(n, 2.0),
                      icu_census=np.ones(n))


class TestTrajectory:
    def test_length_and_days(self):
        t = make_trajectory(start=3, n=4)
        assert len(t) == 4
        assert t.end_day == 7

    def test_channel_series(self):
        t = make_trajectory()
        assert t.series(CASES).name == CASES
        assert list(t.series(ICU_CENSUS).values) == [1.0] * 5
        assert t.series(DEATHS).total() == 0.0
        assert t.series(HOSPITAL_CENSUS).value_on(0) == 2.0

    def test_unknown_channel(self):
        with pytest.raises(KeyError, match="unknown channel"):
            make_trajectory().series("vaccinations")

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            Trajectory(0, np.zeros(3), np.zeros(2), np.zeros(3), np.zeros(3))

    def test_2d_rejected(self):
        with pytest.raises(ValueError, match="1-d"):
            Trajectory(0, np.zeros((2, 2)), np.zeros(4), np.zeros(4), np.zeros(4))

    def test_arrays_readonly(self):
        t = make_trajectory()
        with pytest.raises(ValueError):
            t.infections[0] = 99

    def test_window(self):
        t = make_trajectory(start=0, n=10)
        w = t.window(3, 7)
        assert w.start_day == 3
        assert list(w.infections) == [3.0, 4.0, 5.0, 6.0]

    def test_window_out_of_range(self):
        with pytest.raises(ValueError):
            make_trajectory(n=5).window(3, 9)

    def test_extended_by(self):
        a = make_trajectory(start=0, n=3)
        b = make_trajectory(start=3, n=2)
        merged = a.extended_by(b)
        assert len(merged) == 5
        assert merged.start_day == 0

    def test_extended_by_gap_rejected(self):
        a = make_trajectory(start=0, n=3)
        b = make_trajectory(start=5, n=2)
        with pytest.raises(ValueError, match="continuation"):
            a.extended_by(b)

    def test_totals(self):
        t = make_trajectory(n=5)
        assert t.total_infections() == 10.0
        assert t.total_deaths() == 0.0

    def test_empty(self):
        t = Trajectory.empty(5)
        assert len(t) == 0
        assert t.start_day == 5


class TestTrajectoryBuilder:
    def test_accumulates_days(self):
        b = TrajectoryBuilder(10)
        b.append_day(1, 0, 5, 2)
        b.append_day(2, 1, 6, 3)
        t = b.build()
        assert t.start_day == 10
        assert list(t.infections) == [1.0, 2.0]
        assert list(t.deaths) == [0.0, 1.0]
        assert len(b) == 2

    def test_empty_build(self):
        t = TrajectoryBuilder(0).build()
        assert len(t) == 0
