"""Observation quality checks shared by the API and the service.

Surveillance feeds are messy: NaN placeholders, negative "correction" rows,
duplicated report dates, days arriving out of order.  Feeding any of those
to the calibrator silently corrupts windowed likelihoods (a NaN poisons a
whole window's weights; a negative count is impossible under every
likelihood family in :mod:`repro.core.likelihood`).  This module is the one
shared gate: :func:`repro.inference.calibrate` and the streaming service
intake (the one CSV reader) funnel observations through the same defect
detector, so a bad value is rejected with the same structured record
everywhere.

:func:`find_defects` reports without raising — the streaming intake uses it
to quarantine bad rows while accepting the rest.  :func:`validate_observations`
raises an :class:`ObservationValidationError` listing every defect — the
batch paths use it because a batch run has no later chance to re-ingest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .series import TimeSeries
from .sources import ObservationSet

__all__ = ["ObservationDefect", "ObservationValidationError",
           "find_defects", "find_series_defects", "find_row_defects",
           "validate_observations"]

#: Defect reason codes (stable identifiers for logs and quarantine records).
REASON_NAN = "nan_value"
REASON_NEGATIVE = "negative_value"
REASON_NON_FINITE = "non_finite_value"
REASON_DUPLICATE_DAY = "duplicate_day"
REASON_MALFORMED = "malformed"


@dataclass(frozen=True)
class ObservationDefect:
    """One rejected observation value, with enough context to act on it.

    ``stream`` is the observation stream name, ``day`` the day index the
    value claimed (None when the day itself was unparseable), ``reason``
    one of the ``REASON_*`` codes, and ``detail`` a human-readable
    explanation including the offending value.
    """

    stream: str
    day: int | None
    reason: str
    detail: str

    def render(self) -> str:
        where = f"day {self.day}" if self.day is not None else "unknown day"
        return f"{self.stream}[{where}]: {self.reason} — {self.detail}"

    def to_dict(self) -> dict:
        return {"stream": self.stream, "day": self.day,
                "reason": self.reason, "detail": self.detail}


class ObservationValidationError(ValueError):
    """Raised when observations fail validation; carries every defect."""

    def __init__(self, defects: Sequence[ObservationDefect]) -> None:
        self.defects: tuple[ObservationDefect, ...] = tuple(defects)
        shown = [d.render() for d in self.defects[:8]]
        more = len(self.defects) - len(shown)
        message = (f"{len(self.defects)} invalid observation value(s): "
                   + "; ".join(shown)
                   + (f"; ... and {more} more" if more > 0 else ""))
        super().__init__(message)


def _value_defect(stream: str, day: int | None,
                  value: float) -> ObservationDefect | None:
    """The defect carried by one ``(day, value)`` observation, if any."""
    if math.isnan(value):
        return ObservationDefect(stream, day, REASON_NAN,
                                 "value is NaN; drop the row or impute "
                                 "explicitly")
    if math.isinf(value):
        return ObservationDefect(stream, day, REASON_NON_FINITE,
                                 f"value {value!r} is not finite")
    if value < 0:
        return ObservationDefect(stream, day, REASON_NEGATIVE,
                                 f"count {value!r} is negative; corrections "
                                 "must be folded into the affected day")
    return None


def find_series_defects(series: TimeSeries,
                        name: str | None = None) -> list[ObservationDefect]:
    """Defects in one day-indexed series (NaN / negative / non-finite)."""
    stream = name if name is not None else (series.name or "<unnamed>")
    out: list[ObservationDefect] = []
    for offset, value in enumerate(series.values):
        defect = _value_defect(stream, series.start_day + offset, float(value))
        if defect is not None:
            out.append(defect)
    return out


def find_defects(observations: ObservationSet) -> list[ObservationDefect]:
    """Every defect across an observation set's streams, in stream order."""
    out: list[ObservationDefect] = []
    for source in observations:
        out.extend(find_series_defects(source.series, name=source.name))
    return out


def find_row_defects(stream: str, rows: Iterable[tuple[object, object]],
                     seen_days: Iterable[int] = ()
                     ) -> tuple[list[tuple[int, float]], list[ObservationDefect]]:
    """Split raw ``(day, value)`` rows into accepted pairs and defects.

    The streaming intake's row-level gate: ``rows`` may carry unparseable
    day/value cells (rejected as ``malformed``), NaN/negative/non-finite
    values, or days already present in ``seen_days`` or earlier in the same
    batch (rejected as ``duplicate_day``).  Accepted pairs come back as
    ``(int day, float value)`` in input order.
    """
    accepted: list[tuple[int, float]] = []
    defects: list[ObservationDefect] = []
    days = set(int(d) for d in seen_days)
    for raw_day, raw_value in rows:
        try:
            day = int(raw_day)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            defects.append(ObservationDefect(
                stream, None, REASON_MALFORMED,
                f"day {raw_day!r} is not an integer"))
            continue
        try:
            value = float(raw_value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            defects.append(ObservationDefect(
                stream, day, REASON_MALFORMED,
                f"value {raw_value!r} is not a number"))
            continue
        defect = _value_defect(stream, day, value)
        if defect is not None:
            defects.append(defect)
            continue
        if day in days:
            defects.append(ObservationDefect(
                stream, day, REASON_DUPLICATE_DAY,
                f"day {day} was already observed for this stream"))
            continue
        days.add(day)
        accepted.append((day, value))
    return accepted, defects


def validate_observations(observations: ObservationSet) -> ObservationSet:
    """Reject observation sets carrying NaN / negative / non-finite values.

    Returns the set unchanged when clean, so batch call sites can wrap
    their input in one expression.  Raises
    :class:`ObservationValidationError` listing every defect otherwise.
    """
    defects = find_defects(observations)
    if defects:
        raise ObservationValidationError(defects)
    return observations
