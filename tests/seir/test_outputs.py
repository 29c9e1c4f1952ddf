"""Unit tests for the simulator's trajectory record, ``BatchTrajectory``."""

import numpy as np
import pytest

from repro.data.sources import CASES, DEATHS, HOSPITAL_CENSUS, ICU_CENSUS
from repro.seir import BatchTrajectory
from repro.testing import TrajectoryBuilder


def make_trajectory(start=0, n=5, rows=1):
    return BatchTrajectory(start,
                           infections=np.tile(np.arange(n, dtype=float),
                                              (rows, 1)),
                           deaths=np.zeros((rows, n)),
                           hospital_census=np.full((rows, n), 2.0),
                           icu_census=np.ones((rows, n)))


class TestTrajectory:
    def test_length_and_days(self):
        t = make_trajectory(start=3, n=4, rows=2)
        assert t.n_days == 4
        assert t.n_particles == 2
        assert t.end_day == 7

    def test_channel_series(self):
        t = make_trajectory()
        assert t.channel_matrix(CASES) is t.infections
        assert list(t.channel_matrix(ICU_CENSUS)[0]) == [1.0] * 5
        assert t.channel_matrix(DEATHS).sum() == 0.0
        assert t.channel_matrix(HOSPITAL_CENSUS)[0, 0] == 2.0

    def test_unknown_channel(self):
        with pytest.raises(KeyError, match="unknown channel"):
            make_trajectory().channel_matrix("vaccinations")

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="one 2-d shape"):
            BatchTrajectory(0, np.zeros((1, 3)), np.zeros((1, 2)),
                            np.zeros((1, 3)), np.zeros((1, 3)))

    def test_2d_rejected(self):
        """A bare day vector is not a record: one run is a one-row batch."""
        with pytest.raises(ValueError, match="one 2-d shape"):
            BatchTrajectory(0, np.zeros(4), np.zeros(4), np.zeros(4),
                            np.zeros(4))

    def test_integral_input_becomes_int32(self):
        t = make_trajectory(rows=2)
        assert all(m.dtype == np.int32 for m in (
            t.infections, t.deaths, t.hospital_census, t.icu_census))
        assert t.take([1, 0]).infections.dtype == np.int32
        assert t.window(1, 3).deaths.dtype == np.int32
        assert BatchTrajectory.concatenate([t, t]).icu_census.dtype == \
            np.int32

    @pytest.mark.parametrize("bad", [np.array(1.5), np.array(np.nan),
                                     np.array(2.0**31), np.array(2**31),
                                     np.array(-2**31 - 1)])
    def test_non_integral_or_out_of_range_refused(self, bad):
        ok = np.zeros((1, 2))
        with pytest.raises(ValueError, match="channel entries"):
            BatchTrajectory(0, np.array([[0, bad]], dtype=bad.dtype), ok, ok,
                            ok)

    def test_window(self):
        t = make_trajectory(start=0, n=10)
        w = t.window(3, 7)
        assert w.start_day == 3
        assert list(w.infections[0]) == [3.0, 4.0, 5.0, 6.0]

    def test_window_out_of_range(self):
        with pytest.raises(ValueError):
            make_trajectory(n=5).window(3, 9)

    def test_extended_by(self):
        a = make_trajectory(start=0, n=3)
        b = make_trajectory(start=3, n=2)
        merged = a.extended_by(b)
        assert merged.n_days == 5
        assert merged.start_day == 0
        assert list(merged.infections[0]) == [0.0, 1.0, 2.0, 0.0, 1.0]

    def test_extended_by_gap_rejected(self):
        a = make_trajectory(start=0, n=3)
        b = make_trajectory(start=5, n=2)
        with pytest.raises(ValueError, match="continuation"):
            a.extended_by(b)

    def test_empty(self):
        t = make_trajectory(start=5, n=0)
        assert t.n_days == 0
        assert t.start_day == t.end_day == 5


class TestTrajectoryBuilder:
    def test_accumulates_days(self):
        b = TrajectoryBuilder(10)
        b.append_day(1, 0, 5, 2)
        b.append_day(2, 1, 6, 3)
        t = b.build()
        assert t.start_day == 10
        assert t.n_particles == 1
        assert list(t.infections[0]) == [1.0, 2.0]
        assert list(t.deaths[0]) == [0.0, 1.0]
        # The float recorder's integral days become the one channel dtype.
        assert t.infections.dtype == np.int32
        assert len(b) == 2

    def test_empty_build(self):
        t = TrajectoryBuilder(0).build()
        assert t.n_particles == 1
        assert t.n_days == 0
