"""Checkpoint storage: one sealed columnar file per window.

The paper checkpoints every posterior trajectory between calibration windows
so the next window restarts instead of re-simulating (section III-B).
:class:`CheckpointStore` writes a window's restart state — one
:class:`~repro.seir.checkpoint.StackedLeapState` of same-day binomial-leap
rows — as the columns of one ``checkpoints.npz`` and reads it back whole.

Columns of ``checkpoints.npz`` (``n`` particles, one row each)::

    counts             (n, 20) int64   compartment occupancy
    cum_infections     (n,)    int64
    cum_deaths         (n,)    int64
    seed               (n,)    int64
    day                ()      int64   the window's shared clock
    steps_per_day      ()      int64
    param_<field>      (n,)            one per DiseaseParameters field,
                                       in that field's own dtype

The store's input is a restart state by type — the one restart-state
format, the same columns a shard returns and a particle ensemble carries —
so only restart rows reach it and no per-particle form exists to convert.
The state's rows share one ``DiseaseParameters`` record and differ only in
theta: ``param_transmission_rate`` is the theta column and every other
``param_<field>`` repeats the record's value on each row.  Loading refuses
a file whose rows disagree on any other field, then rebuilds the record
from the first row.

Durability contract
-------------------
Every file is published with write-to-temp + ``fsync`` + ``os.replace``,
so a reader never sees a torn file.  The data file and ``state.json`` land
first, the window directory is fsync'd (POSIX does not order two renames
on disk without it), and only then is the ``COMPLETE.json`` marker —
recording the particle count — published and the directory fsync'd again.
A window counts as complete only when its marker parses and its data file
exists, and :meth:`load_window_state` refuses a data file whose row count
disagrees with the marker.  ``run_meta.json`` pins the run's fingerprint,
including the store's ``format_version``, so a store refuses checkpoints
from a differently configured run or an older layout.

Layout::

    <root>/
      run_meta.json
      window_000/
        checkpoints.npz    # the window's restart checkpoints, as columns
        state.json         # window metadata (posterior, diagnostics)
        COMPLETE.json      # {"n_particles": N}, written last
      window_001/
        ...
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import zipfile
from dataclasses import fields
from pathlib import Path
from typing import Any, BinaryIO, Callable

import numpy as np

from ..seir.checkpoint import CheckpointError, StackedLeapState
from ..seir.compartments import N_COMPARTMENTS
from ..seir.parameters import DiseaseParameters, check_thetas

__all__ = ["CheckpointStore", "write_json_atomic", "read_json",
           "window_directory", "window_indices"]

_RUN_META_NAME = "run_meta.json"
_COMPLETE_NAME = "COMPLETE.json"
_STATE_NAME = "state.json"
_DATA_NAME = "checkpoints.npz"
_PARAM_FIELDS = tuple(f.name for f in fields(DiseaseParameters))
_PARAM_PREFIX = "param_"
_THETA_COLUMN = _PARAM_PREFIX + "transmission_rate"
_STATE_COLUMNS = ("counts", "cum_infections", "cum_deaths", "seed",
                  "day", "steps_per_day")
_COLUMNS = frozenset(_STATE_COLUMNS) | {_PARAM_PREFIX + name
                                        for name in _PARAM_FIELDS}


def _publish_atomic(dest: Path, write: Callable[[BinaryIO], object]) -> None:
    """Write ``dest`` via a same-directory temp file, ``fsync`` it, then
    ``os.replace`` it into place; the temp file is unlinked on any failure."""
    fd, tmp = tempfile.mkstemp(dir=dest.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, dest)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str | os.PathLike, payload: dict, *,
                      sort_keys: bool = False) -> None:
    """Durably publish a JSON file: write-temp + ``fsync`` + ``os.replace``.

    The one atomic-publication primitive shared by the checkpoint store and
    the forecast artifact store (:mod:`repro.service.artifacts`): the temp
    file lands in the destination directory (same filesystem, so the rename
    is atomic), is fsync'd before the rename, and is unlinked on any
    failure — a reader can observe the old file or the new file, never a
    torn one.  ``sort_keys`` makes the byte stream a pure function of the
    payload (the artifact store's bit-identity contract needs that; the
    checkpoint store doesn't care).
    """
    dest = Path(path)
    dest.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, sort_keys=sort_keys)
    _publish_atomic(dest, lambda fh: fh.write(text.encode()))


def read_json(path: Path) -> dict | None:
    """Parse a JSON object file; ``None`` when missing or unreadable.

    The one metadata reader of the checkpoint and artifact stores.
    Unreadable metadata is treated like absent metadata (the window is
    simply not trusted) rather than an exception: restart discovery and
    artifact reads must keep working on a store damaged by the very crash
    they exist to survive.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def window_directory(root: Path, window_index: int) -> Path:
    """``root/window_NNN``: the one namer of window directories, shared by
    the checkpoint and artifact stores (:func:`window_indices` parses)."""
    if window_index < 0:
        raise ValueError("window_index must be >= 0")
    return root / f"window_{window_index:03d}"


def window_indices(root: Path) -> list[int]:
    """Indices of the ``window_NNN`` directories under ``root``, in numeric
    order (``window_1000`` after ``window_999``).

    The one parser of window directory names, shared by the checkpoint
    and artifact stores: anything else named ``window_*`` (a
    ``window_003.bak`` copy, a plain file) is not a window, so it is
    neither listed nor ever pruned.
    """
    indices = []
    for child in root.glob("window_*"):
        digits = child.name[len("window_"):]
        if digits.isascii() and digits.isdigit() and \
                child.name == f"window_{int(digits):03d}" and child.is_dir():
            indices.append(int(digits))
    return sorted(indices)


def _fsync_dir(directory: Path) -> None:
    """Make the renames already done inside ``directory`` durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _window_columns(state: StackedLeapState) -> dict[str, np.ndarray]:
    """The columns of ``checkpoints.npz`` for one window's restart state."""
    if state.params is None or state.thetas is None:
        raise CheckpointError(
            "restart state carries no parameters to write as its parameter "
            "columns")
    columns = {"counts": state.counts,
               "cum_infections": state.cum_infections,
               "cum_deaths": state.cum_deaths, "seed": state.seeds,
               "day": np.asarray(state.day, dtype=np.int64),
               "steps_per_day": np.asarray(state.steps_per_day,
                                           dtype=np.int64)}
    columns.update({_PARAM_PREFIX + name: np.full(state.n_particles, value)
                    for name, value in state.params.to_dict().items()})
    columns[_THETA_COLUMN] = state.thetas
    return columns


def _read_window_state(path: Path, n_particles: int) -> StackedLeapState:
    """Read and validate every column of one window's data file."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            columns = {name: npz[name] for name in npz.files}
    except FileNotFoundError as exc:
        raise CheckpointError(f"missing checkpoint data {path}") from exc
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(
            f"unreadable checkpoint data {path}: {exc}") from exc
    if set(columns) != _COLUMNS:
        raise CheckpointError(
            f"{path} columns differ from the window layout: "
            f"{sorted(set(columns) ^ _COLUMNS)}")
    rows = columns["counts"].shape[0] if columns["counts"].ndim else 0
    if rows != n_particles:
        raise CheckpointError(
            f"{path} holds {rows} rows but the completion marker promises "
            f"{n_particles}")
    for name, array in columns.items():
        shape = {"counts": (n_particles, N_COMPARTMENTS), "day": (),
                 "steps_per_day": ()}.get(name, (n_particles,))
        kinds = "i" if name in _STATE_COLUMNS else "iuf"
        if array.shape != shape or array.dtype.kind not in kinds:
            raise CheckpointError(
                f"{path} column {name!r} is {array.dtype}{list(array.shape)}, "
                f"expected kind {kinds!r} with shape {list(shape)}")
    if int(columns["steps_per_day"]) < 1 or int(columns["day"]) < 0:
        raise CheckpointError(
            f"{path} holds an impossible clock: day {int(columns['day'])}, "
            f"steps_per_day {int(columns['steps_per_day'])}")
    for name in _PARAM_FIELDS:
        column = _PARAM_PREFIX + name
        values = columns[column]
        # Equal to the first row, NaN equal to NaN (np.unique's semantics
        # without its numpy.ma import).
        if column != _THETA_COLUMN and not np.array_equal(
                values, np.broadcast_to(values[:1], values.shape),
                equal_nan=True):
            raise CheckpointError(
                f"{path} column {column!r} disagrees across rows; a "
                "window's rows share every parameter but theta")
    thetas = columns[_THETA_COLUMN]
    try:
        params = DiseaseParameters(**{
            name: columns[_PARAM_PREFIX + name][0].item()
            for name in _PARAM_FIELDS})
        check_thetas(thetas)
    except (ValueError, IndexError) as exc:
        raise CheckpointError(
            f"{path} holds invalid parameters: {exc}") from exc
    return StackedLeapState(
        int(columns["day"]), int(columns["steps_per_day"]),
        *(columns[name] for name in _STATE_COLUMNS[:4]),
        params=params, thetas=thetas)


class CheckpointStore:
    """File-backed store of restart checkpoints, one sealed file per window."""

    def __init__(self, root: str | os.PathLike) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)

    @property
    def root(self) -> Path:
        return self._root

    # ------------------------------------------------------------------ #
    def _window_dir(self, window_index: int) -> Path:
        return window_directory(self._root, window_index)

    def save_window_state(self, window_index: int, state: StackedLeapState,
                          meta: dict) -> None:
        """Persist a window's full restart state plus its metadata, in the
        crash-safe order of the module's durability contract.  A state
        without parameters (an engine-only shard state) is refused with
        :class:`CheckpointError` before any file is written."""
        if state.n_particles < 1:
            raise ValueError("cannot persist an empty window")
        directory = self._window_dir(window_index)
        columns = _window_columns(state)
        directory.mkdir(parents=True, exist_ok=True)
        _publish_atomic(directory / _DATA_NAME,
                        lambda fh: np.savez(fh, **columns))
        write_json_atomic(directory / _STATE_NAME, meta)
        _fsync_dir(directory)
        write_json_atomic(directory / _COMPLETE_NAME,
                          {"n_particles": state.n_particles})
        _fsync_dir(directory)

    def expected_count(self, window_index: int) -> int | None:
        """Particle count promised by the completion marker (None = unmarked)."""
        payload = read_json(self._window_dir(window_index) / _COMPLETE_NAME)
        if payload is None or "n_particles" not in payload:
            return None
        try:
            return int(payload["n_particles"])
        except (TypeError, ValueError):
            return None

    def window_complete(self, window_index: int) -> bool:
        """Whether the window is marked complete *and* its data file exists.

        The marker alone is necessary but not sufficient: a marked window
        can later lose its data file (partial deletion, failed copy between
        file systems).
        """
        return self.expected_count(window_index) is not None and \
            (self._window_dir(window_index) / _DATA_NAME).is_file()

    def load_window_meta(self, window_index: int) -> dict[str, Any]:
        """The window's ``state.json`` metadata payload."""
        payload = read_json(self._window_dir(window_index) / _STATE_NAME)
        if payload is None:
            raise CheckpointError(
                f"no state metadata stored for window {window_index}")
        return payload

    def load_window_state(self, window_index: int
                          ) -> tuple[StackedLeapState, dict[str, Any]]:
        """Load a *complete* window's restart state and metadata.

        Refuses torn windows: the completion marker must be present and
        ``checkpoints.npz`` must hold exactly the promised rows.  A missing,
        truncated or malformed data file raises :class:`CheckpointError`.
        """
        directory = self._window_dir(window_index)
        if not directory.is_dir():
            raise CheckpointError(
                f"no checkpoints stored for window {window_index}")
        expected = self.expected_count(window_index)
        if expected is None:
            raise CheckpointError(
                f"window {window_index} has no completion marker; "
                "refusing to load a possibly torn window")
        return (_read_window_state(directory / _DATA_NAME, expected),
                self.load_window_meta(window_index))

    def stored_windows(self) -> list[int]:
        """Indices of all windows with a directory, complete or not, in
        numeric order (see :func:`window_indices`)."""
        return window_indices(self._root)

    def prune(self, keep_last: int) -> list[int]:
        """Retention GC: delete old *complete* windows, keep the newest
        ``keep_last``.

        Only sealed windows are candidates — an unsealed window directory
        is never touched (it may be mid-write by a live run, and it is the
        crash evidence a resume inspects), and the latest sealed window is
        always kept (``keep_last >= 1``) because it is the restart point.
        Batch :meth:`~repro.core.smc.SequentialCalibrator.run` resume
        restores a gapless prefix, so prune only *after* a batch run
        finishes; the streaming service resumes from the latest sealed
        window alone and can prune continuously.  Returns the deleted
        window indices (oldest first).
        """
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        sealed = [i for i in self.stored_windows() if self.window_complete(i)]
        doomed = sealed[:-keep_last]
        for index in doomed:
            shutil.rmtree(self._window_dir(index))
        return doomed

    # ------------------------------------------------------------------ #
    def write_run_meta(self, fingerprint: dict) -> None:
        """Durably record the run's config/seed fingerprint."""
        write_json_atomic(self._root / _RUN_META_NAME, fingerprint)

    def read_run_meta(self) -> dict | None:
        """The stored fingerprint, or ``None`` for a fresh store."""
        return read_json(self._root / _RUN_META_NAME)

    def validate_run_meta(self, fingerprint: dict) -> None:
        """Bind the store to one run configuration.

        First call on a fresh store records the fingerprint; later calls
        must match it exactly, so checkpoints written under one
        ``(base_seed, shard layout, config)`` can never silently seed a
        resume under another — which would break the bit-identical-resume
        guarantee without any detectable symptom.
        """
        existing = self.read_run_meta()
        if existing is None:
            self.write_run_meta(fingerprint)
            return
        if existing != fingerprint:
            differing = sorted(
                k for k in set(existing) | set(fingerprint)
                if existing.get(k) != fingerprint.get(k))
            raise CheckpointError(
                "checkpoint store was produced by a different run "
                f"configuration (differing keys: {differing}); resuming "
                "would not be bit-identical — use a fresh --checkpoint-dir")
