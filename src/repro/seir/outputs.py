"""Trajectory outputs of the disease simulator.

A :class:`Trajectory` is the daily output record of one stochastic simulation
run: new infections (the paper's "cases" channel — the *true*, unobservable
counts), new deaths, and hospital/ICU census snapshots.  Channels are exposed
as :class:`~repro.data.series.TimeSeries` so the observation model and
likelihoods operate on one container type.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.series import TimeSeries
from ..data.sources import CASES, DEATHS, HOSPITAL_CENSUS, ICU_CENSUS

__all__ = ["Trajectory"]

_CHANNELS = (CASES, DEATHS, HOSPITAL_CENSUS, ICU_CENSUS)


@dataclass(frozen=True)
class Trajectory:
    """Daily outputs of one simulation run over ``[start_day, end_day)``.

    Attributes
    ----------
    start_day:
        First simulated day in this record.
    infections:
        New infections (S -> E flux) per day; the true case channel.
    deaths:
        New deaths per day (flux into D_U + D_D).
    hospital_census:
        End-of-day occupancy of hospital (H + post-ICU) compartments.
    icu_census:
        End-of-day occupancy of ICU compartments.
    """

    start_day: int
    infections: np.ndarray
    deaths: np.ndarray
    hospital_census: np.ndarray
    icu_census: np.ndarray

    def __post_init__(self) -> None:
        arrays = {}
        n = None
        for name in ("infections", "deaths", "hospital_census", "icu_census"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).copy()
            if arr.ndim != 1:
                raise ValueError(f"{name} must be 1-d")
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise ValueError("trajectory channels must have equal length")
            arr.setflags(write=False)
            arrays[name] = arr
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "start_day", int(self.start_day))

    def __len__(self) -> int:
        return int(self.infections.shape[0])

    @property
    def end_day(self) -> int:
        return self.start_day + len(self)

    # ------------------------------------------------------------------ #
    def channel_values(self, channel: str) -> np.ndarray:
        """The named channel's backing array (read-only, no copy).

        The zero-copy accessor the batched weighting path uses to stack
        thousands of segments without materialising a TimeSeries each.
        """
        mapping = {
            CASES: self.infections,
            DEATHS: self.deaths,
            HOSPITAL_CENSUS: self.hospital_census,
            ICU_CENSUS: self.icu_census,
        }
        if channel not in mapping:
            raise KeyError(f"unknown channel {channel!r}; expected one of {_CHANNELS}")
        return mapping[channel]

    def series(self, channel: str) -> TimeSeries:
        """The named output channel as a :class:`TimeSeries`."""
        return TimeSeries(self.start_day, self.channel_values(channel),
                          name=channel)

    def window(self, start_day: int, end_day: int) -> "Trajectory":
        """Slice the record to days ``[start_day, end_day)``."""
        if start_day < self.start_day or end_day > self.end_day or end_day < start_day:
            raise ValueError(
                f"window [{start_day}, {end_day}) not within "
                f"[{self.start_day}, {self.end_day})")
        lo, hi = start_day - self.start_day, end_day - self.start_day
        return Trajectory(start_day,
                          self.infections[lo:hi], self.deaths[lo:hi],
                          self.hospital_census[lo:hi], self.icu_census[lo:hi])

    def extended_by(self, other: "Trajectory") -> "Trajectory":
        """Append a continuation segment (checkpoint-restarted window)."""
        if other.start_day != self.end_day:
            raise ValueError(
                f"continuation starts at day {other.start_day}, expected {self.end_day}")
        return Trajectory(
            self.start_day,
            np.concatenate([self.infections, other.infections]),
            np.concatenate([self.deaths, other.deaths]),
            np.concatenate([self.hospital_census, other.hospital_census]),
            np.concatenate([self.icu_census, other.icu_census]),
        )

    def total_infections(self) -> float:
        return float(self.infections.sum())

    def total_deaths(self) -> float:
        return float(self.deaths.sum())

    @classmethod
    def empty(cls, start_day: int) -> "Trajectory":
        z = np.zeros(0)
        return cls(start_day, z, z, z, z)
