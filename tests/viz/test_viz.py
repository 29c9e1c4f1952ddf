"""Unit tests for ASCII rendering and CSV export."""

import csv

import numpy as np
import pytest

from repro.core import trajectory_ribbon
from repro.data import TimeSeries
from repro.seir import BatchTrajectory
from repro.viz import (density_grid_plot, line_plot, multi_line_plot,
                       ribbon_plot, write_density_csv, write_json,
                       write_ribbon_csv, write_series_csv)


class TestAsciiPlots:
    def test_line_plot_contains_marker_and_bounds(self):
        out = line_plot(np.linspace(0, 100, 50), title="ramp")
        assert "ramp" in out
        assert "*" in out
        assert "max 100.0" in out
        assert "min 0.0" in out

    def test_log_scale_label(self):
        out = line_plot(np.array([1.0, 10.0, 100.0]), log_scale=True)
        assert "log scale" in out

    def test_multi_line_distinct_markers(self):
        out = multi_line_plot([np.zeros(10), np.full(10, 5.0)],
                              markers=["a", "b"])
        assert "a" in out
        assert "b" in out

    def test_multi_line_validation(self):
        with pytest.raises(ValueError):
            multi_line_plot([])
        with pytest.raises(ValueError):
            multi_line_plot([np.zeros(3), np.zeros(3)], markers=["x"])

    def test_long_series_downsampled_to_width(self):
        out = line_plot(np.arange(10_000.0), width=40)
        assert max(len(line) for line in out.splitlines()) <= 41

    def test_constant_series_no_crash(self):
        out = line_plot(np.full(10, 3.0))
        assert "3.0" in out

    def test_ribbon_plot_with_truth(self):
        days = np.arange(10)
        out = ribbon_plot(days, np.zeros(10), np.full(10, 4.0),
                          np.full(10, 2.0), truth=np.full(10, 2.0),
                          title="rib")
        assert "rib" in out
        assert "days 0..9" in out

    def test_density_grid_shades(self):
        d = np.zeros((4, 3))
        d[2, 1] = 5.0
        out = density_grid_plot(d, title="dens")
        assert "@" in out
        assert len(out.splitlines()) == 4  # title + 3 y-rows

    def test_density_grid_validation(self):
        with pytest.raises(ValueError):
            density_grid_plot(np.zeros(3))


def ribbon_fixture():
    cases = np.repeat(np.arange(10.0)[:, None], 4, axis=1)
    zeros = np.zeros((10, 4))
    trajs = BatchTrajectory(5, cases, zeros, zeros, zeros)
    return trajectory_ribbon(trajs, "cases", quantiles=(0.05, 0.5, 0.95))


class TestExports:
    def test_series_csv(self, tmp_path):
        path = tmp_path / "series.csv"
        write_series_csv(path, {"cases": TimeSeries(3, [1.0, 2.0])})
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["day", "series", "value"]
        assert rows[1] == ["3", "cases", "1.0"]
        assert len(rows) == 3

    def test_series_csv_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_series_csv(tmp_path / "x.csv", {})

    def test_ribbon_csv(self, tmp_path):
        path = tmp_path / "ribbon.csv"
        rib = ribbon_fixture()
        truth = TimeSeries(5, [4.0, 4.0, 4.0, 4.0])
        write_ribbon_csv(path, rib, truth=truth)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["day", "q05", "q50", "q95", "truth"]
        assert len(rows) == 5
        assert rows[1][0] == "5"
        assert rows[1][-1] == "4.0"

    def test_density_csv(self, tmp_path):
        path = tmp_path / "density.csv"
        write_density_csv(path, np.array([0.0, 1.0, 2.0]),
                          np.array([0.0, 1.0]), np.array([[0.2], [0.8]]),
                          x_name="theta", y_name="rho")
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["theta", "rho", "density"]
        assert len(rows) == 3

    def test_density_csv_shape_validated(self, tmp_path):
        with pytest.raises(ValueError):
            write_density_csv(tmp_path / "bad.csv", np.array([0.0, 1.0]),
                              np.array([0.0, 1.0]), np.zeros((2, 2)))

    def test_write_json_handles_numpy(self, tmp_path):
        import json
        path = tmp_path / "out.json"
        write_json(path, {"arr": np.array([1.0, 2.0]),
                          "scalar": np.float64(3.5)})
        payload = json.loads(path.read_text())
        assert payload == {"arr": [1.0, 2.0], "scalar": 3.5}
