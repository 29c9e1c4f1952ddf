"""Day-indexed time series container used throughout the library.

The paper calibrates simulated trajectories against day-indexed count data
(reported cases, deaths).  Everything that moves between the simulator, the
bias model, the likelihood, and the plotting exports is a :class:`TimeSeries`:
a contiguous run of per-day values anchored at an integer ``start_day``.

Design notes
------------
* Values are stored as a float64 ``numpy`` array.  Counts are conceptually
  integers but become fractional under averaging and quantile operations, so
  a single dtype keeps the algebra simple.
* Instances are immutable by convention: slicing returns a new series.
  The underlying buffer is flagged read-only to catch accidental mutation.
* Slicing is explicit.  :meth:`TimeSeries.window` refuses a range the
  series does not cover instead of padding it, so windowed calibration
  code never scores a day it has no data for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = ["TimeSeries"]


def _as_float_array(values: Iterable[float]) -> np.ndarray:
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                     dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"TimeSeries values must be 1-d, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """A contiguous, day-indexed sequence of values.

    Parameters
    ----------
    start_day:
        Integer day index of the first value (day 0 is the epidemic onset in
        all paper experiments).
    values:
        Per-day values; any 1-d sequence accepted, stored as float64.
    name:
        Optional label ("cases", "deaths", ...) carried through operations
        where it is unambiguous.
    """

    start_day: int
    values: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        arr = _as_float_array(self.values)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "start_day", int(self.start_day))

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self.values.shape[0])

    def __eq__(self, other) -> bool:  # type: ignore[override]
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return (self.start_day == other.start_day
                and len(self) == len(other)
                and bool(np.array_equal(self.values, other.values)))

    def __hash__(self) -> int:
        return hash((self.start_day, self.values.tobytes()))

    @property
    def end_day(self) -> int:
        """Day index one past the final value (python-range convention)."""
        return self.start_day + len(self)

    @property
    def days(self) -> np.ndarray:
        """Integer day axis, same length as :attr:`values`."""
        return np.arange(self.start_day, self.end_day)

    def value_on(self, day: int) -> float:
        """Return the value recorded for ``day``.

        Raises
        ------
        KeyError
            If ``day`` lies outside the series range.
        """
        if not self.start_day <= day < self.end_day:
            raise KeyError(
                f"day {day} outside series range [{self.start_day}, {self.end_day})"
            )
        return float(self.values[day - self.start_day])

    # ------------------------------------------------------------------ #
    # Slicing
    # ------------------------------------------------------------------ #
    def window(self, start_day: int, end_day: int) -> "TimeSeries":
        """Slice the series to days ``[start_day, end_day)``.

        The requested range must be fully contained in the series; windowed
        calibration must never silently pad with zeros.
        """
        if start_day < self.start_day or end_day > self.end_day:
            raise ValueError(
                f"window [{start_day}, {end_day}) not contained in "
                f"[{self.start_day}, {self.end_day})"
            )
        if end_day < start_day:
            raise ValueError("window end before start")
        lo = start_day - self.start_day
        hi = end_day - self.start_day
        return TimeSeries(start_day, self.values[lo:hi], name=self.name)

    def head(self, n_days: int) -> "TimeSeries":
        """First ``n_days`` values."""
        return self.window(self.start_day, min(self.end_day, self.start_day + n_days))

    def total(self) -> float:
        """Sum of all values."""
        return float(self.values.sum())

    @classmethod
    def zeros(cls, start_day: int, n_days: int, name: str = "") -> "TimeSeries":
        """A series of ``n_days`` zeros starting at ``start_day``."""
        if n_days < 0:
            raise ValueError("n_days must be >= 0")
        return cls(start_day, np.zeros(n_days), name=name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (f"TimeSeries({label} days [{self.start_day}, {self.end_day}), "
                f"n={len(self)}, total={self.total():.1f})")

