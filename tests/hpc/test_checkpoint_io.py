"""Unit tests for the checkpoint store (one sealed columnar file per window)."""

import dataclasses
import hashlib
import os
import shutil
import stat

import numpy as np
import pytest

from repro.hpc import CheckpointStore
from repro.seir import (BatchedBinomialLeapEngine, CheckpointError,
                        StackedLeapState)
from repro.testing import BinomialLeapEngine

META = {"window_index": 0, "params": [[0.3, 0.7]]}
WINDOW_FILES = ["COMPLETE.json", "checkpoints.npz", "state.json"]


def leap_state(params, n, *, seed0=0):
    """``n`` restart rows at day 10, each with its own theta."""
    thetas = np.linspace(0.25, 0.35, n)
    engine = BatchedBinomialLeapEngine(params, np.arange(n) + seed0,
                                       thetas=thetas)
    engine.run_until(10)
    return StackedLeapState(
        day=engine.day, steps_per_day=engine.steps_per_day,
        counts=engine.counts, cum_infections=engine.cumulative_infections,
        cum_deaths=engine.cumulative_deaths, seeds=engine.seeds,
        params=params, thetas=thetas)


def rows(state):
    """Every row of a restart state: its engine columns, its theta and its
    parameters (the state's record, whose own transmission rate no row
    reads)."""
    record = state.params.with_updates(transmission_rate=0.0)
    return [(*row, record) for row in zip(
        state.counts.tolist(), state.cum_infections.tolist(),
        state.cum_deaths.tolist(), state.seeds.tolist(),
        state.thetas.tolist())]


@pytest.fixture
def checkpoints(small_params):
    return leap_state(small_params, 3)


def window_file(store, index, name="checkpoints.npz"):
    return store.root / f"window_{index:03d}" / name


def unseal(store, index):
    """A window as a crash before its marker leaves it."""
    window_file(store, index, "COMPLETE.json").unlink()


class TestCheckpointStore:
    def test_save_and_load_particle(self, tmp_path, checkpoints):
        store = CheckpointStore(tmp_path)
        store.save_window_state(0, checkpoints, META)
        loaded, _ = store.load_window_state(0)
        assert rows(loaded)[0] == rows(checkpoints)[0]
        assert loaded.day == 10 and loaded.seeds[0] == checkpoints.seeds[0]

    def test_save_window_bulk(self, tmp_path, checkpoints):
        """The round trip rebuilds every column bit for bit in its own
        dtype, and every row's parameters each in its own Python type."""
        store = CheckpointStore(tmp_path)
        store.save_window_state(0, checkpoints, META)
        assert store.expected_count(0) == 3
        loaded, _ = store.load_window_state(0)
        for name in ("counts", "cum_infections", "cum_deaths", "seeds"):
            before, after = getattr(checkpoints, name), getattr(loaded, name)
            assert after.dtype == before.dtype
            assert np.array_equal(after, before)
        assert loaded.thetas.dtype == checkpoints.thetas.dtype
        assert np.array_equal(loaded.thetas, checkpoints.thetas)
        assert rows(loaded) == rows(checkpoints)
        before, after = checkpoints.params, loaded.params
        assert [type(v) for v in after.to_dict().values()] == \
            [type(v) for v in before.to_dict().values()]

    def test_load_missing_particle(self, tmp_path, checkpoints):
        store = CheckpointStore(tmp_path)
        store.save_window_state(0, checkpoints, META)
        window_file(store, 0).unlink()
        with pytest.raises(CheckpointError, match="missing"):
            store.load_window_state(0)

    def test_load_missing_window(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(CheckpointError, match="no checkpoints"):
            store.load_window_state(5)

    def test_latest_restart_point(self, tmp_path, checkpoints):
        store = CheckpointStore(tmp_path)
        assert store.stored_windows() == []
        store.save_window_state(0, checkpoints, META)
        store.save_window_state(1, checkpoints.take([0]), META)
        assert [w for w in store.stored_windows()
                if store.window_complete(w)] == [0, 1]
        cps, _ = store.load_window_state(1)
        assert cps.n_particles == 1

    def test_store_root_holds_no_manifest(self, tmp_path, checkpoints):
        """Saving and pruning write window directories only: the store
        keeps no manifest next to them."""
        store = CheckpointStore(tmp_path)
        for w in range(3):
            store.save_window_state(w, checkpoints, META)
        store.prune(keep_last=1)
        assert [p.name for p in tmp_path.iterdir()] == ["window_002"]

    def test_restart_from_stored_checkpoint_runs(self, tmp_path, checkpoints):
        """A stored row restarted on a seed replays the in-memory row
        restarted on the same seed bit for bit."""
        store = CheckpointStore(tmp_path)
        store.save_window_state(0, checkpoints, META)
        loaded, _ = store.load_window_state(0)
        traj = BinomialLeapEngine.from_state_row(
            loaded, 0, loaded.seeds[0]).run_until(15)
        assert traj.start_day == 10
        direct = BinomialLeapEngine.from_state_row(
            checkpoints, 0, checkpoints.seeds[0]).run_until(15)
        assert np.array_equal(traj.infections, direct.infections)

    def test_negative_indices_rejected(self, tmp_path, checkpoints):
        store = CheckpointStore(tmp_path)
        with pytest.raises(ValueError):
            store.save_window_state(-1, checkpoints, META)
        with pytest.raises(ValueError):
            store.load_window_state(-1)

    @pytest.mark.parametrize("n", [1, 40])
    def test_window_is_three_files_whatever_its_size(self, tmp_path,
                                                     small_params, n):
        store = CheckpointStore(tmp_path)
        store.save_window_state(0, leap_state(small_params, n), META)
        assert sorted(p.name for p in (tmp_path / "window_000").iterdir()) \
            == WINDOW_FILES


class TestDurability:
    """Atomic, fsync'd publication of the window file and store metadata."""

    def test_save_leaves_no_temp_files(self, tmp_path, checkpoints):
        store = CheckpointStore(tmp_path)
        store.save_window_state(0, checkpoints, META)
        leftovers = [p for p in tmp_path.rglob("*.tmp")]
        assert leftovers == []

    def test_torn_write_never_observed(self, tmp_path, checkpoints,
                                       small_params):
        """Re-persisting a window replaces its population whole: a reader
        sees the old population or the new one, never a mix (a torn data
        file fails loudly; see TestCorruptWindowFile)."""
        store = CheckpointStore(tmp_path)
        store.save_window_state(0, checkpoints, META)
        before, _ = store.load_window_state(0)
        replacement = leap_state(small_params, 3, seed0=100)
        store.save_window_state(0, replacement, META)
        after, _ = store.load_window_state(0)
        assert rows(before) == rows(checkpoints)
        assert rows(after) == rows(replacement)
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_publish_order_fsyncs_window_directory(self, tmp_path,
                                                   checkpoints, monkeypatch):
        """Data, then a directory fsync, then the marker, then another:
        without the first, POSIX may persist the marker's rename before
        the data file's."""
        events = []
        real_replace, real_fsync = os.replace, os.fsync

        def replace(src, dst):
            real_replace(src, dst)
            events.append(os.path.basename(dst))

        def fsync(fd):
            real_fsync(fd)
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                events.append("fsync(dir)")

        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "fsync", fsync)
        CheckpointStore(tmp_path).save_window_state(0, checkpoints, META)
        assert events == ["checkpoints.npz", "state.json", "fsync(dir)",
                          "COMPLETE.json", "fsync(dir)"]


def truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def rewrite(path, edit):
    with np.load(path, allow_pickle=False) as npz:
        columns = {name: npz[name] for name in npz.files}
    edit(columns)
    with open(path, "wb") as fh:
        np.savez(fh, **columns)


def object_column(columns):
    columns["seed"] = np.array(list(columns["seed"]), dtype=object)


def short_rows(columns):
    for name, array in columns.items():
        if array.ndim:
            columns[name] = array[:2]


def missing_column(columns):
    del columns["cum_deaths"]


def float_counts(columns):
    columns["counts"] = columns["counts"].astype(np.float64)


class TestCorruptWindowFile:
    """A damaged ``checkpoints.npz`` raises CheckpointError, never the
    underlying BadZipFile/KeyError/ValueError."""

    @pytest.mark.parametrize("damage, message", [
        (truncate, "unreadable"),
        (lambda path: rewrite(path, object_column), "unreadable"),
        (lambda path: rewrite(path, short_rows), "2 rows.*promises 3"),
        (lambda path: rewrite(path, missing_column), "cum_deaths"),
        (lambda path: rewrite(path, float_counts), "'counts'"),
    ], ids=["truncated", "object-array", "rows-disagree-with-marker",
            "missing-column", "float-counts"])
    def test_damaged_data_file_refused(self, tmp_path, checkpoints, damage,
                                       message):
        store = CheckpointStore(tmp_path)
        store.save_window_state(0, checkpoints, META)
        damage(window_file(store, 0))
        with pytest.raises(CheckpointError, match=message):
            store.load_window_state(0)

    @pytest.mark.parametrize("column, value", [("steps_per_day", 0),
                                               ("day", -1)])
    def test_impossible_clock_refused(self, tmp_path, checkpoints, column,
                                      value):
        """A clock no engine can restart from fails at load, not later
        inside a shard."""
        store = CheckpointStore(tmp_path)
        store.save_window_state(0, checkpoints, META)

        def set_clock(columns):
            columns[column] = np.asarray(value, dtype=np.int64)
        rewrite(window_file(store, 0), set_clock)
        with pytest.raises(CheckpointError, match="impossible clock"):
            store.load_window_state(0)


class TestWindowFormat:
    """The one parameter record is written as per-row ``param_<field>``
    columns, so window files keep the bytes of the per-row layout and
    only files whose rows share every field but theta load."""

    #: sha256 of ``checkpoints.npz`` for ``leap_state(small_params, 3)``,
    #: as written when every field was stored as its own per-row column
    #: (numpy 2.4's ``np.savez`` encoding).
    PINNED_SHA256 = ("f07615cbd01f8d94ec48f8423dc881c0"
                     "e3e31504bde5b42df8c4cf09bbec972d")

    def test_window_file_bytes_are_pinned(self, tmp_path, checkpoints):
        CheckpointStore(tmp_path).save_window_state(0, checkpoints, META)
        digest = hashlib.sha256(window_file(
            CheckpointStore(tmp_path), 0).read_bytes()).hexdigest()
        assert digest == self.PINNED_SHA256

    def test_rows_disagreeing_on_a_shared_field_refused(self, tmp_path,
                                                        checkpoints):
        store = CheckpointStore(tmp_path)
        store.save_window_state(0, checkpoints, META)

        def vary_mild_fraction(columns):
            columns["param_mild_fraction"] = np.array([0.9, 0.9, 0.8])
        rewrite(window_file(store, 0), vary_mild_fraction)
        with pytest.raises(CheckpointError,
                           match="'param_mild_fraction' disagrees"):
            store.load_window_state(0)


class TestRefusesNonRestartCheckpoints:
    """Only full restart states fit a window's columns: anything else is
    refused before any file is written."""

    def test_state_without_parameter_columns_refused(self, tmp_path,
                                                     checkpoints):
        """An engine-only state (what a shard ships) cannot be persisted:
        the parameter columns are part of the window's restart format."""
        store = CheckpointStore(tmp_path)
        with pytest.raises(CheckpointError, match="parameter columns"):
            store.save_window_state(
                0, dataclasses.replace(checkpoints, params=None, thetas=None),
                META)
        assert list(tmp_path.iterdir()) == []


class TestWindowCompleteness:
    """Completion markers separate torn windows from resumable ones."""

    def test_unmarked_window_is_incomplete(self, tmp_path, checkpoints):
        store = CheckpointStore(tmp_path)
        store.save_window_state(0, checkpoints, META)
        unseal(store, 0)  # data on disk, but no marker
        assert not store.window_complete(0)
        assert store.expected_count(0) is None

    def test_marker_with_missing_particles_is_incomplete(self, tmp_path,
                                                         checkpoints):
        store = CheckpointStore(tmp_path)
        store.save_window_state(0, checkpoints, META)
        window_file(store, 0).unlink()
        assert not store.window_complete(0)

    def test_restart_point_skips_torn_window(self, tmp_path, checkpoints):
        """Regression: a crash mid-window used to be offered as a restart
        point; now only the previous *complete* window is."""
        store = CheckpointStore(tmp_path)
        store.save_window_state(0, checkpoints, META)
        store.save_window_state(1, checkpoints.take([0]), META)
        unseal(store, 1)
        assert [w for w in store.stored_windows()
                if store.window_complete(w)] == [0]
        cps, _ = store.load_window_state(0)
        assert cps.n_particles == 3

    def test_restart_point_none_when_all_torn(self, tmp_path, checkpoints):
        store = CheckpointStore(tmp_path)
        store.save_window_state(0, checkpoints, META)
        unseal(store, 0)
        assert store.stored_windows() == [0]
        assert not store.window_complete(0)

    def test_load_window_state_refuses_torn_window(self, tmp_path,
                                                   checkpoints):
        store = CheckpointStore(tmp_path)
        store.save_window_state(0, checkpoints, META)
        unseal(store, 0)
        with pytest.raises(CheckpointError, match="torn"):
            store.load_window_state(0)

    def test_save_window_state_round_trip(self, tmp_path, checkpoints):
        store = CheckpointStore(tmp_path)
        store.save_window_state(0, checkpoints, meta=META)
        cps, loaded_meta = store.load_window_state(0)
        assert cps.seeds.tolist() == checkpoints.seeds.tolist()
        assert loaded_meta == META

    def test_empty_window_rejected(self, tmp_path, checkpoints):
        store = CheckpointStore(tmp_path)
        with pytest.raises(ValueError, match="empty window"):
            store.save_window_state(0, checkpoints.take([]), META)

    def test_corrupt_marker_treated_as_absent(self, tmp_path, checkpoints):
        """A truncated marker and one of non-UTF-8 bytes both read as no
        marker."""
        store = CheckpointStore(tmp_path)
        store.save_window_state(0, checkpoints, META)
        for torn in (b"{trunc", b"\xff\xfe{"):
            window_file(store, 0, "COMPLETE.json").write_bytes(torn)
            assert not store.window_complete(0)
            assert store.expected_count(0) is None


class TestRunMeta:
    """The store is bound to one run configuration fingerprint."""

    def test_first_validate_records(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.read_run_meta() is None
        store.validate_run_meta({"base_seed": 17, "engine": "x"})
        assert store.read_run_meta() == {"base_seed": 17, "engine": "x"}

    def test_matching_fingerprint_accepted(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.validate_run_meta({"base_seed": 17})
        store.validate_run_meta({"base_seed": 17})  # no raise

    def test_mismatch_refused_with_differing_keys(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.validate_run_meta({"base_seed": 17, "engine": "a"})
        with pytest.raises(CheckpointError,
                           match=r"different run configuration.*base_seed"):
            store.validate_run_meta({"base_seed": 18, "engine": "a"})


class TestPrune:
    def seal(self, store, index, checkpoints):
        store.save_window_state(index, checkpoints, META)

    def test_prune_keeps_newest_sealed(self, tmp_path, checkpoints):
        store = CheckpointStore(tmp_path)
        for w in range(4):
            self.seal(store, w, checkpoints)
        assert store.prune(keep_last=2) == [0, 1]
        assert store.stored_windows() == [2, 3]
        assert store.window_complete(2) and store.window_complete(3)

    def test_prune_never_deletes_unsealed(self, tmp_path, checkpoints):
        store = CheckpointStore(tmp_path)
        self.seal(store, 0, checkpoints)
        self.seal(store, 1, checkpoints)
        # Window 2 is torn: data on disk but no completion marker.
        self.seal(store, 2, checkpoints)
        unseal(store, 2)
        assert store.prune(keep_last=1) == [0]
        assert store.stored_windows() == [1, 2]
        assert store.window_complete(1)
        assert not store.window_complete(2)

    def test_prune_never_deletes_latest_sealed(self, tmp_path, checkpoints):
        store = CheckpointStore(tmp_path)
        self.seal(store, 0, checkpoints)
        assert store.prune(keep_last=1) == []
        assert store.window_complete(0)

    def test_prune_noop_below_threshold(self, tmp_path, checkpoints):
        store = CheckpointStore(tmp_path)
        self.seal(store, 0, checkpoints)
        self.seal(store, 1, checkpoints)
        assert store.prune(keep_last=5) == []
        assert store.stored_windows() == [0, 1]

    def test_windows_past_999_order_by_number(self, tmp_path, checkpoints):
        """``window_1000`` follows ``window_999``: retention keeps the two
        newest windows by index, not by directory-name order."""
        store = CheckpointStore(tmp_path)
        for w in range(997, 1002):
            self.seal(store, w, checkpoints)
        assert store.stored_windows() == [997, 998, 999, 1000, 1001]
        assert store.prune(keep_last=2) == [997, 998, 999]
        assert store.stored_windows() == [1000, 1001]
        assert store.window_complete(1000) and store.window_complete(1001)

    def test_stray_window_entries_are_ignored_and_kept(self, tmp_path,
                                                       checkpoints):
        """Only ``window_NNN`` directories are windows: a sealed
        ``window_003.bak`` copy, a ``window_7`` directory and a
        ``window_004`` file are neither listed nor pruned."""
        store = CheckpointStore(tmp_path)
        for w in range(3):
            self.seal(store, w, checkpoints)
        shutil.copytree(tmp_path / "window_002", tmp_path / "window_003.bak")
        (tmp_path / "window_7").mkdir()
        (tmp_path / "window_004").write_text("not a window")
        assert store.stored_windows() == [0, 1, 2]
        assert store.prune(keep_last=1) == [0, 1]
        assert store.stored_windows() == [2]
        assert (tmp_path / "window_003.bak" / "COMPLETE.json").is_file()
        assert (tmp_path / "window_7").is_dir()
        assert (tmp_path / "window_004").is_file()

    def test_prune_rejects_bad_keep_last(self, tmp_path):
        store = CheckpointStore(tmp_path)
        with pytest.raises(ValueError, match="keep_last"):
            store.prune(keep_last=0)
