"""Supervised intake: validation, quarantine, ordering, spool re-scan."""

import json

import numpy as np
import pytest

from repro.data import TimeSeries
from repro.service import IngestError, ObservationBuffer, SpoolIngest
from repro.service.ingest import REASON_OUT_OF_ORDER, REASON_UNKNOWN_STREAM
from repro.viz import write_series_csv

CASES_ONLY = {"cases": ("cases", True)}


def write_spool(spool_dir, name, rows):
    """Write one immutable spool file (write-then-rename contract)."""
    spool_dir.mkdir(parents=True, exist_ok=True)
    tmp = spool_dir / (name + ".tmp")
    lines = ["day,series,value"] + [f"{d},{s},{v}" for d, s, v in rows]
    tmp.write_text("\n".join(lines) + "\n")
    tmp.rename(spool_dir / name)


class TestObservationBuffer:
    def test_accepts_valid_rows_and_assembles_windows(self):
        buf = ObservationBuffer(CASES_ONLY)
        assert buf.add_rows("cases", [(d, float(10 + d))
                                      for d in range(5, 12)]) == []
        assert buf.covered(5, 12)
        assert not buf.covered(5, 13)
        obs = buf.observation_set(5, 12)
        assert obs["cases"].series.start_day == 5
        assert list(obs["cases"].series.values) == [
            float(10 + d) for d in range(5, 12)]

    def test_rejects_bad_values_with_structured_errors(self):
        buf = ObservationBuffer(CASES_ONLY)
        errors = buf.add_rows("cases", [(1, 5.0), (2, float("nan")),
                                        (3, -4.0), ("x", 1.0), (1, 6.0)])
        assert {e.reason for e in errors} == \
            {"nan_value", "negative_value", "malformed", "duplicate_day"}
        # the good row landed, the bad ones did not
        assert buf.covered(1, 2)
        assert buf.missing_days(1, 4)["cases"] == [2, 3]

    def test_unknown_stream_is_rejected_whole(self):
        buf = ObservationBuffer(CASES_ONLY)
        errors = buf.add_rows("wastewater", [(1, 2.0)])
        assert len(errors) == 1
        assert errors[0].reason == REASON_UNKNOWN_STREAM
        assert "wastewater" in errors[0].detail

    def test_advanced_frontier_rejects_late_arrivals(self):
        buf = ObservationBuffer(CASES_ONLY)
        buf.add_rows("cases", [(d, 1.0) for d in range(0, 8)])
        buf.advance_frontier(8)
        errors = buf.add_rows("cases", [(3, 9.0), (8, 2.0)])
        assert [e.reason for e in errors] == ["duplicate_day"]
        # a late *new* day below the frontier (never seen before)
        buf2 = ObservationBuffer(CASES_ONLY)
        buf2.add_rows("cases", [(d, 1.0) for d in range(0, 7)])
        buf2.advance_frontier(8)
        late = buf2.add_rows("cases", [(7, 2.0)])
        assert [e.reason for e in late] == [REASON_OUT_OF_ORDER]

    def test_initial_frontier_history_is_silently_skipped(self):
        """A restarted daemon re-reads history; history is not an error."""
        buf = ObservationBuffer(CASES_ONLY, frontier=10)
        errors = buf.add_rows("cases", [(3, 1.0), (4, float("nan")),
                                        (10, 5.0)])
        assert errors == []          # days < 10 skipped, even invalid ones
        assert buf.covered(10, 11)
        assert not buf.covered(9, 11)

    def test_frontier_cannot_retreat(self):
        buf = ObservationBuffer(CASES_ONLY, frontier=5)
        with pytest.raises(ValueError, match="only advance"):
            buf.advance_frontier(4)

    def test_observation_set_requires_full_coverage(self):
        buf = ObservationBuffer(CASES_ONLY)
        buf.add_rows("cases", [(0, 1.0), (2, 1.0)])
        with pytest.raises(ValueError, match="missing"):
            buf.observation_set(0, 3)

    def test_multi_stream_coverage_needs_every_stream(self):
        buf = ObservationBuffer()  # default: cases + deaths
        buf.add_rows("cases", [(d, 1.0) for d in range(0, 4)])
        assert not buf.covered(0, 4)
        buf.add_rows("deaths", [(d, 0.0) for d in range(0, 4)])
        assert buf.covered(0, 4)
        obs = buf.observation_set(0, 4)
        assert obs["cases"].biased and not obs["deaths"].biased


class TestSpoolIngest:
    def test_scan_reads_each_file_once(self, tmp_path):
        spool = tmp_path / "spool"
        write_spool(spool, "a.csv", [(d, "cases", 1.0) for d in range(0, 5)])
        buf = ObservationBuffer(CASES_ONLY)
        ingest = SpoolIngest(spool, buf)
        assert ingest.scan() == []
        # second scan is a no-op: no duplicate_day storm from re-reading
        assert ingest.scan() == []
        write_spool(spool, "b.csv", [(d, "cases", 1.0) for d in range(5, 9)])
        assert ingest.scan() == []
        assert buf.covered(0, 9)

    def test_rejections_are_quarantined_as_jsonl(self, tmp_path):
        spool = tmp_path / "spool"
        quarantine = tmp_path / "q" / "rejects.jsonl"
        write_spool(spool, "bad.csv",
                    [(0, "cases", 1.0), (1, "cases", "nan"),
                     (2, "cases", -3.0), (0, "wastewater", 9.0)])
        buf = ObservationBuffer(CASES_ONLY)
        ingest = SpoolIngest(spool, buf, quarantine_path=quarantine)
        errors = ingest.scan()
        assert {e.reason for e in errors} == \
            {"nan_value", "negative_value", REASON_UNKNOWN_STREAM}
        records = [json.loads(line)
                   for line in quarantine.read_text().splitlines()]
        assert len(records) == len(errors)
        assert all(r["source"] == "bad.csv" for r in records)
        # the calibrator-facing buffer holds only the good row
        assert buf.covered(0, 1) and not buf.covered(0, 2)

    def test_structurally_broken_file_is_one_error_not_a_crash(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "broken.csv").write_text("not,a,spool,header\n1,2,3,4\n")
        ingest = SpoolIngest(spool, ObservationBuffer(CASES_ONLY))
        errors = ingest.scan()
        assert len(errors) == 1
        assert errors[0].reason == "malformed"
        assert errors[0].source == "broken.csv"

    def test_undecodable_file_is_quarantined_and_scan_continues(self,
                                                                tmp_path):
        """A file that is not UTF-8 is one ``malformed`` record, not a
        crash, and a later good file in the same scan still lands."""
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "a_bad.csv").write_bytes(b"day,series,value\n0,cases,\xff\n")
        write_spool(spool, "b_good.csv", [(d, "cases", 2.0) for d in range(3)])
        quarantine = tmp_path / "rejects.jsonl"
        buf = ObservationBuffer(CASES_ONLY)
        errors = SpoolIngest(spool, buf, quarantine_path=quarantine).scan()
        assert [(e.source, e.reason) for e in errors] == [
            ("a_bad.csv", "malformed")]
        records = [json.loads(line)
                   for line in quarantine.read_text().splitlines()]
        assert [(r["source"], r["reason"]) for r in records] == [
            ("a_bad.csv", "malformed")]
        assert buf.covered(0, 3)

    def test_series_csv_export_round_trips(self, tmp_path):
        """A ``write_series_csv`` export (the ``fig2`` layout) ingests with
        no rejections and assembles back to the exported series."""
        spool = tmp_path / "spool"
        spool.mkdir()
        exported = {"cases": TimeSeries(2, [4.0, 5.0, 7.0], name="cases"),
                    "deaths": TimeSeries(2, [0.0, 1.0, 0.0], name="deaths")}
        write_series_csv(spool / "export.csv", exported)
        buf = ObservationBuffer()
        assert SpoolIngest(spool, buf).scan() == []
        obs = buf.observation_set(2, 5)
        for name, series in exported.items():
            assert obs[name].series == series
        assert obs["cases"].biased and not obs["deaths"].biased

    def test_missing_spool_dir_is_quietly_empty(self, tmp_path):
        ingest = SpoolIngest(tmp_path / "nope", ObservationBuffer(CASES_ONLY))
        assert ingest.scan() == []

    def test_restart_rescan_is_deterministic(self, tmp_path):
        """Fresh process + full re-scan rebuilds the same buffer state."""
        spool = tmp_path / "spool"
        write_spool(spool, "a.csv", [(d, "cases", float(d))
                                     for d in range(0, 10)])
        write_spool(spool, "b.csv", [(d, "cases", float(d))
                                     for d in range(10, 15)])

        first = ObservationBuffer(CASES_ONLY)
        SpoolIngest(spool, first).scan()
        first.advance_frontier(10)  # a window sealed; then we "crash"

        resumed = ObservationBuffer(CASES_ONLY, frontier=10)
        errors = SpoolIngest(spool, resumed).scan()
        assert errors == []  # re-read history is skipped, not flagged
        a = first.observation_set(10, 15)["cases"].series.values
        b = resumed.observation_set(10, 15)["cases"].series.values
        assert np.array_equal(a, b)


class TestIngestError:
    def test_render_and_dict_roundtrip(self):
        err = IngestError(stream="cases", day=4, reason="nan_value",
                          detail="not a number", source="f.csv")
        assert "f.csv" in err.render() and "day 4" in err.render()
        assert err.to_dict()["reason"] == "nan_value"
