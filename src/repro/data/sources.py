"""Observation sources and multi-stream observation sets.

The calibration in the paper conditions on one or two empirical data streams:
reported case counts alone (Fig 3, Fig 4) or cases plus deaths (Fig 5).  An
:class:`ObservationSource` is one named stream with metadata about which
simulator output channel it constrains and whether a reporting-bias model
applies.  An :class:`ObservationSet` bundles the streams and supports the
window slicing the sequential calibrator performs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .series import TimeSeries

__all__ = ["ObservationSource", "ObservationSet", "CASES", "DEATHS",
           "HOSPITAL_CENSUS", "ICU_CENSUS", "CHANNELS"]

#: Canonical simulator output channel names.
CASES = "cases"
DEATHS = "deaths"
HOSPITAL_CENSUS = "hospital_census"
ICU_CENSUS = "icu_census"

CHANNELS = frozenset({CASES, DEATHS, HOSPITAL_CENSUS, ICU_CENSUS})

#: Default stream -> (channel, biased) wiring matching the paper's setup.
_DEFAULT_STREAMS: dict[str, tuple[str, bool]] = {
    "cases": (CASES, True),
    "deaths": (DEATHS, False),
}


@dataclass(frozen=True)
class ObservationSource:
    """One named empirical data stream.

    Parameters
    ----------
    name:
        Stream label, unique within an :class:`ObservationSet`.
    series:
        Day-indexed observed values.
    channel:
        Simulator output channel this stream constrains (one of
        ``cases``/``deaths``/``hospital_census``/``icu_census``).
    biased:
        Whether the binomial reporting-bias model applies to this stream.
        The paper applies it to cases but *not* to deaths (section V-C).
    """

    name: str
    series: TimeSeries
    channel: str = CASES
    biased: bool = True

    def __post_init__(self) -> None:
        if self.channel not in CHANNELS:
            raise ValueError(
                f"unknown channel {self.channel!r}; expected one of {sorted(CHANNELS)}"
            )
        if not self.name:
            raise ValueError("source name must be non-empty")

    def window(self, start_day: int, end_day: int) -> "ObservationSource":
        """Slice the stream to a calibration window."""
        return ObservationSource(self.name, self.series.window(start_day, end_day),
                                 channel=self.channel, biased=self.biased)


@dataclass(frozen=True)
class ObservationSet:
    """An ordered, name-keyed collection of observation streams."""

    sources: tuple[ObservationSource, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [s.name for s in self.sources]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate source names: {names}")
        object.__setattr__(self, "sources", tuple(self.sources))

    @classmethod
    def of(cls, *sources: ObservationSource) -> "ObservationSet":
        return cls(sources=tuple(sources))

    def __len__(self) -> int:
        return len(self.sources)

    def __iter__(self) -> Iterator[ObservationSource]:
        return iter(self.sources)

    def __contains__(self, name: str) -> bool:
        return any(s.name == name for s in self.sources)

    def __getitem__(self, name: str) -> ObservationSource:
        for s in self.sources:
            if s.name == name:
                return s
        raise KeyError(f"no observation source named {name!r}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.sources)

    @property
    def start_day(self) -> int:
        """Latest start day across streams (common coverage begins here)."""
        if not self.sources:
            raise ValueError("empty observation set")
        return max(s.series.start_day for s in self.sources)

    @property
    def end_day(self) -> int:
        """Earliest end day across streams (common coverage ends here)."""
        if not self.sources:
            raise ValueError("empty observation set")
        return min(s.series.end_day for s in self.sources)

    def window(self, start_day: int, end_day: int) -> "ObservationSet":
        """Slice every stream to the same calibration window."""
        return ObservationSet(tuple(s.window(start_day, end_day)
                                    for s in self.sources))
