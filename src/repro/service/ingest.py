"""Supervised streaming intake: validate, quarantine, assemble windows.

Observations reach the service as tidy ``day,series,value`` CSV files
dropped into a spool directory (the format
:func:`repro.viz.export.write_series_csv` writes, so exported figure data
round-trips).  This is the package's one CSV reader.  Nothing in a
spool file is trusted: every row passes the shared defect detector of
:mod:`repro.data.validation`, and rejected rows become structured
:class:`IngestError` records appended to a quarantine JSONL log — a bad
feed can never poison the calibrator, it can only slow it down (windows
missing data simply stay pending, and forecast reads degrade to the last
sealed artifact).

The :class:`ObservationBuffer` is the accepted-row store.  It enforces the
service's ordering contract: the *frontier* is the first day still open
for ingest (the end of the last calibrated window); rows arriving below a
frontier that advanced in this process are rejected as ``out_of_order``,
because a sealed window's posterior can no longer be revised — late
corrections belong in a fresh run.  Rows below the frontier the buffer
*started* with are silently skipped instead: they are the already-consumed
history a post-crash re-scan legitimately re-reads.

Restart safety comes from re-reading, not bookkeeping: spool files are
immutable once dropped (writers must write-then-rename) and are never
consumed or renamed by the service.  Within one process each file is read
exactly once; after a crash the daemon re-scans the spool from scratch,
the buffer rebuilds deterministically, and windows already sealed in the
checkpoint store are skipped via the resumed frontier.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..data.series import TimeSeries
from ..data.sources import STREAMS, ObservationSet, ObservationSource
from ..data.validation import ObservationDefect, find_row_defects

__all__ = ["IngestError", "ObservationBuffer", "SpoolIngest",
           "REASON_OUT_OF_ORDER", "REASON_UNKNOWN_STREAM"]

#: Service-level rejection reasons, extending repro.data.validation's codes.
REASON_OUT_OF_ORDER = "out_of_order"
REASON_UNKNOWN_STREAM = "unknown_stream"


@dataclass(frozen=True)
class IngestError:
    """One rejected observation row, with its origin.

    The service's structured rejection record: the validation defect
    (stream / day / reason code / detail) plus the spool source it came
    from.  These are appended to the quarantine log and surfaced in
    service events; the rejected value itself never reaches the
    calibrator.
    """

    stream: str
    day: int | None
    reason: str
    detail: str
    source: str = "<rows>"

    @classmethod
    def from_defect(cls, defect: ObservationDefect,
                    source: str) -> "IngestError":
        return cls(stream=defect.stream, day=defect.day,
                   reason=defect.reason, detail=defect.detail, source=source)

    def render(self) -> str:
        where = f"day {self.day}" if self.day is not None else "unknown day"
        return (f"{self.source}: {self.stream}[{where}]: "
                f"{self.reason} — {self.detail}")

    def to_dict(self) -> dict:
        return {"stream": self.stream, "day": self.day,
                "reason": self.reason, "detail": self.detail,
                "source": self.source}


class ObservationBuffer:
    """Accepted observations, keyed per stream per day, window-sliceable.

    ``streams`` maps each expected stream name to its ``(channel, biased)``
    wiring (defaulting to the paper's cases/deaths setup); rows for
    unconfigured streams are rejected — silently calibrating an
    unconfigured stream is how reporting-bias errors slip in.

    ``frontier`` is the first day rows may still land on.  It advances as
    windows seal (:meth:`advance_frontier`); accepted rows are retained
    below it so duplicate detection stays exact across the whole run.
    Rows below the *initial* frontier — the resume point a restarted
    daemon constructs the buffer with — are silently skipped: a post-crash
    re-scan re-reads history, and history is not an error.
    """

    def __init__(self, streams: Mapping[str, tuple[str, bool]] | None = None,
                 *, frontier: int = 0) -> None:
        self._streams: dict[str, tuple[str, bool]] = dict(
            streams if streams is not None else STREAMS)
        if not self._streams:
            raise ValueError("at least one stream must be configured")
        self._frontier = int(frontier)
        self._initial_frontier = int(frontier)
        self._values: dict[str, dict[int, float]] = {
            name: {} for name in self._streams}

    @property
    def stream_names(self) -> tuple[str, ...]:
        return tuple(self._streams)

    def advance_frontier(self, day: int) -> None:
        """Seal history up to ``day``: later arrivals below it are rejected
        as out-of-order."""
        if day < self._frontier:
            raise ValueError(
                f"frontier may only advance (now {self._frontier}, "
                f"got {day})")
        self._frontier = int(day)

    def add_rows(self, stream: str, rows: Iterable[tuple[object, object]],
                 source: str = "<rows>") -> list[IngestError]:
        """Ingest raw ``(day, value)`` rows for one stream.

        Accepted values land in the buffer; every rejected row comes back
        as an :class:`IngestError` (malformed / NaN / negative /
        non-finite / duplicate via the shared detector, plus the service's
        out-of-order and unknown-stream rules).  Never raises on bad data.
        """
        if stream not in self._streams:
            return [IngestError(stream=stream, day=None,
                                reason=REASON_UNKNOWN_STREAM,
                                detail=f"stream {stream!r} is not configured "
                                       f"(expected {sorted(self._streams)})",
                                source=source)]
        values = self._values[stream]
        accepted, defects = find_row_defects(stream, rows,
                                             seen_days=values.keys())
        errors = [IngestError.from_defect(d, source) for d in defects
                  if not (d.day is not None
                          and d.day < self._initial_frontier)]
        for day, value in accepted:
            if day < self._initial_frontier:
                continue  # already-consumed history re-read after a restart
            if day < self._frontier:
                errors.append(IngestError(
                    stream=stream, day=day, reason=REASON_OUT_OF_ORDER,
                    detail=f"day {day} is behind the calibration frontier "
                           f"{self._frontier}; sealed windows cannot be "
                           "revised", source=source))
                continue
            values[day] = value
        return errors

    def covered(self, start_day: int, end_day: int) -> bool:
        """True when every stream has every day of ``[start_day, end_day)``."""
        if end_day <= start_day:
            raise ValueError("end_day must exceed start_day")
        days = range(start_day, end_day)
        return all(all(d in values for d in days)
                   for values in self._values.values())

    def observation_set(self, start_day: int, end_day: int) -> ObservationSet:
        """The buffered observations for one window, as calibrator input.

        Requires full coverage (:meth:`covered`); the assembled set passes
        through the configured stream wiring, so it is exactly what the
        batch path would have built from the same rows.
        """
        if not self.covered(start_day, end_day):
            days = range(start_day, end_day)
            missing = {name: [d for d in days if d not in values]
                       for name, values in self._values.items()
                       if not all(d in values for d in days)}
            raise ValueError(
                f"window [{start_day}, {end_day}) is not fully ingested; "
                f"missing {missing}")
        sources = []
        for name, (channel, biased) in self._streams.items():
            values = self._values[name]
            series = TimeSeries(
                start_day,
                np.asarray([values[d] for d in range(start_day, end_day)],
                           dtype=float),
                name=name)
            sources.append(ObservationSource(name, series, channel=channel,
                                             biased=biased))
        return ObservationSet.of(*sources)


class SpoolIngest:
    """Directory-watching intake: scan spool CSVs into a buffer.

    Files are tidy ``day,series,value`` CSVs under ``spool_dir``, scanned
    in sorted name order so ingest order is deterministic, and each file
    is read exactly once per process (new data must arrive as new files —
    the write-then-rename spool contract).  Files are never consumed,
    renamed, or rewritten by the service, which is what makes a crash at
    any point recoverable by simply re-scanning everything against the
    resumed frontier.  Unreadable files (including files that are not
    UTF-8) and invalid rows are quarantined, not raised.
    """

    def __init__(self, spool_dir: str | os.PathLike,
                 buffer: ObservationBuffer, *,
                 quarantine_path: str | os.PathLike | None = None) -> None:
        self._spool_dir = Path(spool_dir)
        self._buffer = buffer
        self._quarantine_path = (Path(quarantine_path)
                                 if quarantine_path is not None else None)
        self._seen: set[str] = set()

    def _quarantine(self, errors: Sequence[IngestError]) -> None:
        if not errors or self._quarantine_path is None:
            return
        self._quarantine_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self._quarantine_path, "a") as fh:
            for error in errors:
                fh.write(json.dumps(error.to_dict(), sort_keys=True) + "\n")

    def scan(self) -> list[IngestError]:
        """Read every new spool file into the buffer; return rejections."""
        errors: list[IngestError] = []
        if not self._spool_dir.is_dir():
            return errors
        for path in sorted(self._spool_dir.glob("*.csv")):
            if path.name in self._seen:
                continue
            self._seen.add(path.name)
            errors.extend(self._ingest_file(path))
        self._quarantine(errors)
        return errors

    def _ingest_file(self, path: Path) -> list[IngestError]:
        source = path.name
        by_stream: dict[str, list[tuple[object, object]]] = {}
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                reader = csv.DictReader(fh)
                required = {"day", "series", "value"}
                if reader.fieldnames is None or \
                        not required <= set(reader.fieldnames):
                    return [IngestError(
                        stream="<file>", day=None, reason="malformed",
                        detail=f"spool CSV needs columns {sorted(required)}, "
                               f"got {reader.fieldnames}", source=source)]
                for row in reader:
                    stream = row.get("series") or "<missing>"
                    by_stream.setdefault(stream, []).append(
                        (row.get("day"), row.get("value")))
        except (OSError, csv.Error, UnicodeDecodeError) as exc:
            return [IngestError(stream="<file>", day=None, reason="malformed",
                                detail=f"unreadable spool file: {exc}",
                                source=source)]
        errors: list[IngestError] = []
        for stream in sorted(by_stream):
            errors.extend(self._buffer.add_rows(stream, by_stream[stream],
                                                source=source))
        return errors
