"""CSV/JSON export of figure data.

Every figure in the paper corresponds to a set of series; these helpers
write them in the tidy layout a plotting front-end (R/ggplot as the authors
used, or matplotlib) would consume: one row per (day, series) observation or
one row per (x, y, density) grid cell.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Mapping, Sequence

import numpy as np

from ..core.posterior import TrajectoryRibbon
from ..data.series import TimeSeries

__all__ = ["write_series_csv", "write_ribbon_csv", "write_density_csv",
           "write_json"]


def write_series_csv(path: str | os.PathLike,
                     series: Mapping[str, TimeSeries]) -> None:
    """Tidy CSV of named day series: columns ``day, series, value``.

    Series may have different day ranges; every (day, name) pair present is
    written.  This is the layout the service's spool intake reads
    (:class:`repro.service.ingest.SpoolIngest`), so exported series
    round-trip through it.
    """
    if not series:
        raise ValueError("no series to write")
    with open(os.fspath(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day", "series", "value"])
        for name, ts in series.items():
            for day, value in zip(ts.days, ts.values):
                writer.writerow([int(day), name, float(value)])


def write_ribbon_csv(path: str | os.PathLike, ribbon: TrajectoryRibbon,
                     truth: TimeSeries | None = None) -> None:
    """CSV of a credible ribbon: ``day, q05, q25, q50, ..., truth``."""
    headers = ["day"] + [f"q{int(round(q * 100)):02d}" for q in ribbon.quantiles]
    if truth is not None:
        headers.append("truth")
    with open(os.fspath(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        for col, day in enumerate(ribbon.days):
            row: list = [int(day)]
            row.extend(float(ribbon.bands[i, col])
                       for i in range(len(ribbon.quantiles)))
            if truth is not None:
                row.append(float(truth.value_on(int(day))))
            writer.writerow(row)


def write_density_csv(path: str | os.PathLike, x_edges: np.ndarray,
                      y_edges: np.ndarray, density: np.ndarray,
                      x_name: str = "x", y_name: str = "y") -> None:
    """CSV of a 2-d density grid: ``x_mid, y_mid, density`` per cell."""
    x = np.asarray(x_edges, dtype=np.float64)
    y = np.asarray(y_edges, dtype=np.float64)
    d = np.asarray(density, dtype=np.float64)
    if d.shape != (x.size - 1, y.size - 1):
        raise ValueError("density shape must match the edge grids")
    x_mid = 0.5 * (x[:-1] + x[1:])
    y_mid = 0.5 * (y[:-1] + y[1:])
    with open(os.fspath(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([x_name, y_name, "density"])
        for i in range(x_mid.size):
            for j in range(y_mid.size):
                writer.writerow([float(x_mid[i]), float(y_mid[j]),
                                 float(d[i, j])])


def write_json(path: str | os.PathLike, payload: dict) -> None:
    """Pretty-printed JSON dump (summaries, experiment records)."""
    with open(os.fspath(path), "w") as fh:
        json.dump(payload, fh, indent=2, default=_jsonify)


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, Sequence) and not isinstance(obj, str):
        return list(obj)
    raise TypeError(f"not JSON-serialisable: {type(obj)!r}")
