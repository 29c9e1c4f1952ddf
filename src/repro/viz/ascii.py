"""ASCII rendering of series, histograms, ribbons, and density grids.

This environment has no plotting stack, so the library renders its figures
as terminal text: good enough to eyeball shapes (exponential growth, ribbon
coverage, posterior concentration) and diff-able in test logs.  The exact
numeric series behind every figure goes through :mod:`repro.viz.export`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["line_plot", "multi_line_plot", "ribbon_plot", "density_grid_plot"]

_DEFAULT_WIDTH = 72
_DEFAULT_HEIGHT = 16


def _scale_to_rows(values: np.ndarray, height: int, lo: float, hi: float,
                   ) -> np.ndarray:
    span = hi - lo
    if span <= 0:
        return np.full(values.shape, height // 2, dtype=np.int64)
    rows = np.rint((values - lo) / span * (height - 1)).astype(np.int64)
    return np.clip(rows, 0, height - 1)


def _resample_columns(values: np.ndarray, width: int) -> np.ndarray:
    """Average-pool a series to at most ``width`` columns."""
    n = values.shape[0]
    if n <= width:
        return values
    edges = np.linspace(0, n, width + 1).astype(np.int64)
    return np.array([values[edges[i]:max(edges[i] + 1, edges[i + 1])].mean()
                     for i in range(width)])


def line_plot(values, *, title: str = "", width: int = _DEFAULT_WIDTH,
              height: int = _DEFAULT_HEIGHT, log_scale: bool = False,
              marker: str = "*") -> str:
    """Render one series as an ASCII chart string."""
    return multi_line_plot([np.asarray(values, dtype=np.float64)],
                           markers=[marker], title=title, width=width,
                           height=height, log_scale=log_scale)


def multi_line_plot(series: Sequence[np.ndarray], *,
                    markers: Sequence[str] | None = None,
                    title: str = "", width: int = _DEFAULT_WIDTH,
                    height: int = _DEFAULT_HEIGHT,
                    log_scale: bool = False) -> str:
    """Overlay several series on one chart (later series draw on top)."""
    if not series:
        raise ValueError("need at least one series")
    arrays = [np.asarray(s, dtype=np.float64) for s in series]
    markers = list(markers) if markers is not None else \
        ["*", "o", "+", "x", "#", "@"][:len(arrays)]
    if len(markers) < len(arrays):
        raise ValueError("need one marker per series")

    transformed = []
    for arr in arrays:
        vals = _resample_columns(arr, width)
        if log_scale:
            vals = np.log10(np.maximum(vals, 1e-9))
        transformed.append(vals)
    lo = min(float(v.min()) for v in transformed)
    hi = max(float(v.max()) for v in transformed)

    grid = [[" "] * width for _ in range(height)]
    for vals, marker in zip(transformed, markers):
        cols = np.linspace(0, width - 1, vals.shape[0]).astype(np.int64)
        rows = _scale_to_rows(vals, height, lo, hi)
        for c, r in zip(cols, rows):
            grid[height - 1 - int(r)][int(c)] = marker

    lo_label, hi_label = (10**lo, 10**hi) if log_scale else (lo, hi)
    lines = []
    if title:
        lines.append(title)
    lines.append(f"max {hi_label:,.1f}" + (" (log scale)" if log_scale else ""))
    lines.extend("|" + "".join(row) for row in grid)
    lines.append(f"min {lo_label:,.1f}")
    return "\n".join(lines)


def ribbon_plot(days, lower, upper, median, truth=None, *,
                title: str = "", width: int = _DEFAULT_WIDTH,
                height: int = _DEFAULT_HEIGHT, log_scale: bool = False) -> str:
    """Render a credible ribbon: band boundaries, median, optional truth dots."""
    series = [np.asarray(lower, dtype=np.float64),
              np.asarray(upper, dtype=np.float64),
              np.asarray(median, dtype=np.float64)]
    markers = [".", ".", "-"]
    if truth is not None:
        series.append(np.asarray(truth, dtype=np.float64))
        markers.append("o")
    label = title or "credible ribbon"
    days_arr = np.asarray(days)
    label += f"  (days {int(days_arr[0])}..{int(days_arr[-1])})"
    return multi_line_plot(series, markers=markers, title=label, width=width,
                           height=height, log_scale=log_scale)


def density_grid_plot(density: np.ndarray, *, title: str = "",
                      shades: str = " .:-=+*#%@") -> str:
    """Character-shaded rendering of a 2-d density (contour-plot stand-in).

    Rows are the *second* axis (to match ``numpy.histogram2d`` output where
    the first axis is x), printed top-to-bottom in decreasing y.
    """
    d = np.asarray(density, dtype=np.float64)
    if d.ndim != 2:
        raise ValueError("density must be 2-d")
    top = d.max() if d.max() > 0 else 1.0
    levels = np.minimum((d / top * (len(shades) - 1)).astype(np.int64),
                        len(shades) - 1)
    lines = [title] if title else []
    for j in range(d.shape[1] - 1, -1, -1):
        lines.append("".join(shades[levels[i, j]] for i in range(d.shape[0])))
    return "\n".join(lines)
