"""Crash-safe artifact publication: seals, torn reads, degradation."""

import json
import shutil

import pytest

from repro.service import ArtifactStore
from repro.testing.chaos import tear_artifact


def payload_for(index):
    return {"window_index": index, "forecast": [1.0, 2.0, float(index)]}


class TestPublishAndSeal:
    def test_publish_seals_and_loads_back(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.publish(0, payload_for(0))
        assert store.sealed_windows() == [0]
        assert store.validate(0)
        assert store.read_latest().payload == payload_for(0)

    def test_artifact_bytes_are_canonical(self, tmp_path):
        """Bytes are a pure function of the payload: key order, two stores,
        two publishes — all byte-identical."""
        a = ArtifactStore(tmp_path / "a")
        b = ArtifactStore(tmp_path / "b")
        a.publish(0, {"z": 1, "a": [2, 3], "m": {"y": 1, "x": 2}})
        b.publish(0, {"m": {"x": 2, "y": 1}, "a": [2, 3], "z": 1})
        fa = (a.window_dir(0) / "forecast.json").read_bytes()
        fb = (b.window_dir(0) / "forecast.json").read_bytes()
        assert fa == fb

    def test_latest_pointer_tracks_the_head(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.publish(0, payload_for(0))
        store.publish(1, payload_for(1))
        latest = json.loads((tmp_path / "LATEST.json").read_text())
        assert latest == {"window_index": 1}
        # re-publishing an older window must not move the pointer back
        store.publish(0, payload_for(0))
        latest = json.loads((tmp_path / "LATEST.json").read_text())
        assert latest == {"window_index": 1}

    def test_unsealed_window_is_invisible(self, tmp_path):
        store = ArtifactStore(tmp_path)
        directory = store.window_dir(2)
        directory.mkdir(parents=True)
        (directory / "forecast.json").write_text("{}")
        assert store.sealed_windows() == []
        assert store.read_latest() is None


class TestTornArtifacts:
    def test_read_latest_serves_around_a_torn_head(self, tmp_path):
        """The degradation contract: a torn head is skipped, the previous
        sealed window is served, tagged stale."""
        store = ArtifactStore(tmp_path)
        store.publish(0, payload_for(0))
        store.publish(1, payload_for(1))
        tear_artifact(store, 1)
        read = store.read_latest(expected_window=1)
        assert read is not None
        assert read.window_index == 0
        assert read.payload == payload_for(0)
        assert read.stale
        assert read.windows_behind == 1
        assert read.age_seconds >= 0.0

    def test_read_latest_none_when_everything_is_torn(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.publish(0, payload_for(0))
        tear_artifact(store, 0)
        assert store.read_latest() is None


class TestDegradedReads:
    def test_fresh_head_read_is_not_stale(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.publish(0, payload_for(0))
        read = store.read_latest(expected_window=0)
        assert not read.stale and read.windows_behind == 0

    def test_behind_the_expected_head_is_stale_with_distance(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.publish(0, payload_for(0))
        read = store.read_latest(expected_window=3)
        assert read.stale and read.windows_behind == 3

    def test_no_expectation_means_freshest_is_fresh(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.publish(4, payload_for(4))
        read = store.read_latest()
        assert read.window_index == 4 and not read.stale


class TestPrune:
    def test_prune_keeps_newest_sealed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for i in range(4):
            store.publish(i, payload_for(i))
        assert store.prune(keep_last=2) == [0, 1]
        assert store.sealed_windows() == [2, 3]
        assert store.read_latest().payload == payload_for(3)

    def test_windows_past_999_order_by_number(self, tmp_path):
        """``window_1000`` follows ``window_999``: the head, the latest
        read and retention all go by window index."""
        store = ArtifactStore(tmp_path)
        for i in range(997, 1002):
            store.publish(i, payload_for(i))
        assert store.sealed_windows() == [997, 998, 999, 1000, 1001]
        assert store.latest_sealed() == 1001
        assert store.prune(keep_last=2) == [997, 998, 999]
        assert store.sealed_windows() == [1000, 1001]
        read = store.read_latest(expected_window=1001)
        assert read.window_index == 1001
        assert not read.stale and read.windows_behind == 0
        assert read.payload == payload_for(1001)

    def test_prune_requires_positive_keep(self, tmp_path):
        with pytest.raises(ValueError, match=">= 1"):
            ArtifactStore(tmp_path).prune(0)

    def test_stray_window_entries_are_ignored_and_kept(self, tmp_path):
        """A sealed ``window_000.old`` copy is not a window: reads serve
        the real head, and pruning neither lists nor deletes it."""
        store = ArtifactStore(tmp_path)
        for i in range(3):
            store.publish(i, payload_for(i))
        shutil.copytree(store.window_dir(0), tmp_path / "window_000.old")
        assert store.sealed_windows() == [0, 1, 2]
        assert store.read_latest().payload == payload_for(2)
        assert store.prune(keep_last=1) == [0, 1]
        assert store.read_latest().payload == payload_for(2)
        assert (tmp_path / "window_000.old" / "SEALED.json").is_file()

    def test_prune_ignores_unsealed_directories(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.publish(0, payload_for(0))
        store.publish(1, payload_for(1))
        torn = store.window_dir(5)
        torn.mkdir(parents=True)
        (torn / "forecast.json").write_text("{")
        assert store.prune(keep_last=1) == [0]
        assert torn.exists()  # unsealed dirs are never GC'd
