"""Calibration time windows (the outer loop of the paper's framework).

The sequential scheme partitions the observation horizon into contiguous
windows ``[1, t1], [t1+1, t2], ...`` (paper section IV-C).  In our day-indexed
convention a :class:`TimeWindow` is half-open, ``[start_day, end_day)``, and a
:class:`WindowSchedule` is an ordered, gap-free sequence of them.

The paper's experiments use four windows whose boundaries track the
ground-truth horizons: days 20-33, 34-47, 48-61, 62-75, with a burn-in
period (days 0-19) simulated before the first window but not calibrated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = ["TimeWindow", "WindowSchedule"]


@dataclass(frozen=True)
class TimeWindow:
    """Half-open day interval ``[start_day, end_day)``."""

    start_day: int
    end_day: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "start_day", int(self.start_day))
        object.__setattr__(self, "end_day", int(self.end_day))
        if self.end_day <= self.start_day:
            raise ValueError(
                f"window must have positive length, got [{self.start_day}, {self.end_day})")

    @property
    def n_days(self) -> int:
        return self.end_day - self.start_day

    def label(self) -> str:
        """Human-readable label matching the paper's figures ("Days 20-33")."""
        return f"Days {self.start_day}-{self.end_day - 1}"


@dataclass(frozen=True)
class WindowSchedule:
    """Contiguous, ordered calibration windows plus an optional burn-in.

    Attributes
    ----------
    windows:
        The calibration windows; each must start where the previous ended.
    burn_in_start:
        Day at which simulation begins (default 0).  Days in
        ``[burn_in_start, windows[0].start_day)`` are simulated but not
        scored — the paper's runs start at day 0 while calibration starts
        at day 20.
    """

    windows: tuple[TimeWindow, ...]
    burn_in_start: int = 0

    def __post_init__(self) -> None:
        wins = tuple(self.windows)
        if not wins:
            raise ValueError("schedule needs at least one window")
        for prev, cur in zip(wins, wins[1:]):
            if cur.start_day != prev.end_day:
                raise ValueError(
                    f"windows must be contiguous: [{prev.start_day},{prev.end_day}) "
                    f"then [{cur.start_day},{cur.end_day})")
        if self.burn_in_start > wins[0].start_day:
            raise ValueError("burn-in must start at or before the first window")
        object.__setattr__(self, "windows", wins)
        object.__setattr__(self, "burn_in_start", int(self.burn_in_start))

    @classmethod
    def from_breaks(cls, breaks: Sequence[int], burn_in_start: int = 0,
                    ) -> "WindowSchedule":
        """Build from boundary days ``[t0, t1, ..., tK]`` (K windows)."""
        if len(breaks) < 2:
            raise ValueError("need at least two boundary days")
        windows = tuple(TimeWindow(breaks[i], breaks[i + 1])
                        for i in range(len(breaks) - 1))
        return cls(windows=windows, burn_in_start=burn_in_start)

    def __len__(self) -> int:
        return len(self.windows)

    def __iter__(self) -> Iterator[TimeWindow]:
        return iter(self.windows)

    def __getitem__(self, index: int) -> TimeWindow:
        return self.windows[index]

    @property
    def start_day(self) -> int:
        """First calibrated day."""
        return self.windows[0].start_day

    @property
    def end_day(self) -> int:
        """One past the last calibrated day."""
        return self.windows[-1].end_day
