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
* Instances are immutable by convention: all operations return new series.
  The underlying buffer is flagged read-only to catch accidental mutation.
* Alignment is explicit.  Binary operations require identical day ranges;
  use :meth:`TimeSeries.aligned_with` or :func:`align` to intersect ranges
  first.  Silent auto-alignment hides bugs in windowed calibration code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = ["TimeSeries", "align", "concat"]


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
    _frozen: bool = field(default=False, repr=False, compare=False)

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

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

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
    # Slicing and alignment
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

    def tail(self, n_days: int) -> "TimeSeries":
        """Last ``n_days`` values."""
        return self.window(max(self.start_day, self.end_day - n_days), self.end_day)

    def aligned_with(self, other: "TimeSeries") -> tuple["TimeSeries", "TimeSeries"]:
        """Return both series restricted to their common day range."""
        lo = max(self.start_day, other.start_day)
        hi = min(self.end_day, other.end_day)
        if hi <= lo:
            raise ValueError("series do not overlap")
        return self.window(lo, hi), other.window(lo, hi)

    def _check_aligned(self, other: "TimeSeries") -> None:
        if self.start_day != other.start_day or len(self) != len(other):
            raise ValueError(
                "series not aligned: "
                f"[{self.start_day},{self.end_day}) vs [{other.start_day},{other.end_day}); "
                "call aligned_with() first"
            )

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def _binary(self, other, op: Callable[[np.ndarray, np.ndarray], np.ndarray],
                name: str = "") -> "TimeSeries":
        if isinstance(other, TimeSeries):
            self._check_aligned(other)
            return TimeSeries(self.start_day, op(self.values, other.values), name=name)
        return TimeSeries(self.start_day, op(self.values, np.float64(other)),
                          name=name or self.name)

    def __add__(self, other) -> "TimeSeries":
        return self._binary(other, np.add)

    def __sub__(self, other) -> "TimeSeries":
        return self._binary(other, np.subtract)

    def __mul__(self, other) -> "TimeSeries":
        return self._binary(other, np.multiply)

    def __truediv__(self, other) -> "TimeSeries":
        return self._binary(other, np.divide)

    def __eq__(self, other) -> bool:  # type: ignore[override]
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return (self.start_day == other.start_day
                and len(self) == len(other)
                and bool(np.array_equal(self.values, other.values)))

    def __hash__(self) -> int:
        return hash((self.start_day, self.values.tobytes()))

    def map(self, fn: Callable[[np.ndarray], np.ndarray]) -> "TimeSeries":
        """Apply an elementwise vectorised function to the values."""
        out = np.asarray(fn(self.values), dtype=np.float64)
        if out.shape != self.values.shape:
            raise ValueError("map function changed series length")
        return TimeSeries(self.start_day, out, name=self.name)

    # ------------------------------------------------------------------ #
    # Aggregations
    # ------------------------------------------------------------------ #
    def total(self) -> float:
        """Sum of all values."""
        return float(self.values.sum())

    def mean(self) -> float:
        return float(self.values.mean())

    def max(self) -> float:
        return float(self.values.max())

    def min(self) -> float:
        return float(self.values.min())

    def cumulative(self) -> "TimeSeries":
        """Running sum (e.g. daily incidence -> cumulative cases)."""
        return TimeSeries(self.start_day, np.cumsum(self.values),
                          name=f"cumulative_{self.name}" if self.name else "")

    def diff(self) -> "TimeSeries":
        """First difference; inverse of :meth:`cumulative` up to the first value.

        The returned series keeps the same start day, with the first value
        equal to the original first value (i.e. a cumulative series round-trips
        through ``.diff()``).
        """
        vals = np.empty_like(self.values)
        vals[0] = self.values[0]
        np.subtract(self.values[1:], self.values[:-1], out=vals[1:])
        return TimeSeries(self.start_day, vals,
                          name=f"diff_{self.name}" if self.name else "")

    def shift(self, days: int) -> "TimeSeries":
        """Shift the day axis (positive = later) without touching values.

        Models reporting lag: ``observed = true.shift(lag)``.
        """
        return TimeSeries(self.start_day + int(days), self.values, name=self.name)

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "start_day": self.start_day,
            "values": [float(v) for v in self.values],
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TimeSeries":
        return cls(start_day=int(d["start_day"]), values=d["values"],
                   name=str(d.get("name", "")))

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


def align(series: Sequence[TimeSeries]) -> list[TimeSeries]:
    """Restrict every series to the common day range of all of them."""
    if not series:
        return []
    lo = max(s.start_day for s in series)
    hi = min(s.end_day for s in series)
    if hi <= lo:
        raise ValueError("series have no common day range")
    return [s.window(lo, hi) for s in series]


def concat(first: TimeSeries, second: TimeSeries) -> TimeSeries:
    """Concatenate two series whose day ranges are exactly adjacent.

    Used when a checkpoint-restarted window trajectory is appended to the
    trajectory that produced the checkpoint.
    """
    if second.start_day != first.end_day:
        raise ValueError(
            f"cannot concat: second starts at {second.start_day}, "
            f"expected {first.end_day}"
        )
    return TimeSeries(first.start_day,
                      np.concatenate([first.values, second.values]),
                      name=first.name or second.name)
