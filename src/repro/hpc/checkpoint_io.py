"""Checkpoint storage: one sealed columnar file per window plus a manifest.

The paper checkpoints every posterior trajectory between calibration windows
so the next window restarts instead of re-simulating (section III-B).  A
window's posterior is hundreds of same-day binomial-leap restart
checkpoints; :class:`CheckpointStore` stacks them into the columns of one
``checkpoints.npz`` per window, so persisting a window publishes a fixed
handful of files whatever its particle count, and loading it reads each
column once.

Columns of ``checkpoints.npz`` (``n`` particles, one row each)::

    counts             (n, 20) int64   compartment occupancy
    cum_infections     (n,)    int64
    cum_deaths         (n,)    int64
    seed               (n,)    int64
    day                ()      int64   the window's shared clock
    steps_per_day      ()      int64
    param_<field>      (n,)            one per DiseaseParameters field,
                                       in that field's own dtype

Only *restart* checkpoints fit these columns: ``binomial_leap`` snapshots
on one ``(day, steps_per_day)`` clock, with no theta schedule (each
particle's theta is its ``transmission_rate``) and no recorded RNG state (a
restart checkpoint's stream is its seed's fresh generator; see
:func:`~repro.seir.batch_engine.leap_particle_snapshot`).
:meth:`CheckpointStore.save_window_state` refuses anything else before it
writes a file.

Durability contract
-------------------
Every file is published with write-to-temp + ``fsync`` + ``os.replace``,
so a reader never sees a torn file.  Window *completeness* is a separate
concern: the data file and ``state.json`` land first, the window
directory is fsync'd, and only then is the ``COMPLETE.json`` marker —
recording the particle count — published and the directory fsync'd again.
POSIX does not order two renames on disk without that first directory
fsync, so after a power loss the marker could otherwise be durable while
the data file's rename is not.  A window counts as complete only when its
marker parses and its data file exists, and :meth:`load_window_state`
refuses a data file whose row count disagrees with the marker, so an
interrupted run can never resume from a torn window.  ``run_meta.json``
pins the run's config/seed fingerprint — including the store's
``format_version`` — so a store refuses checkpoints from a differently
configured run or an older layout.

Layout::

    <root>/
      manifest.json
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
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, BinaryIO, Callable, Sequence

import numpy as np

from ..seir.batch_engine import leap_particle_snapshot
from ..seir.checkpoint import Checkpoint, CheckpointError, stack_leap_snapshots
from ..seir.compartments import N_COMPARTMENTS
from ..seir.parameters import DiseaseParameters

__all__ = ["CheckpointStore", "StoreManifest", "write_json_atomic"]

_MANIFEST_NAME = "manifest.json"
_RUN_META_NAME = "run_meta.json"
_COMPLETE_NAME = "COMPLETE.json"
_STATE_NAME = "state.json"
_DATA_NAME = "checkpoints.npz"
_PARAM_FIELDS = tuple(f.name for f in fields(DiseaseParameters))
_PARAM_PREFIX = "param_"
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


def _fsync_dir(directory: Path) -> None:
    """Make the renames already done inside ``directory`` durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _window_columns(checkpoints: Sequence[Checkpoint]) -> dict[str, np.ndarray]:
    """Stack restart checkpoints into the columns of ``checkpoints.npz``.

    Raises :class:`CheckpointError` for any checkpoint that is not a
    restart checkpoint (see the module docstring).
    """
    for i, cp in enumerate(checkpoints):
        if cp.theta_schedule is not None:
            raise CheckpointError(
                f"checkpoint {i} carries a theta schedule; the store holds "
                "restart checkpoints only (theta in transmission_rate)")
        if "rng_state" in cp.snapshot:
            raise CheckpointError(
                f"checkpoint {i} records a mid-stream rng_state; the store "
                "holds restart checkpoints only (stream derived from seed)")
    stacked = stack_leap_snapshots([cp.snapshot for cp in checkpoints])
    columns = {"counts": stacked.counts,
               "cum_infections": stacked.cum_infections,
               "cum_deaths": stacked.cum_deaths, "seed": stacked.seeds,
               "day": np.asarray(stacked.day, dtype=np.int64),
               "steps_per_day": np.asarray(stacked.steps_per_day,
                                           dtype=np.int64)}
    for name in _PARAM_FIELDS:
        columns[_PARAM_PREFIX + name] = np.array(
            [getattr(cp.params, name) for cp in checkpoints])
    return columns


def _read_window_columns(path: Path, n_particles: int
                         ) -> dict[str, np.ndarray]:
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
    return columns


def _checkpoints_from_columns(columns: dict[str, np.ndarray]
                              ) -> list[Checkpoint]:
    """Rebuild the window's :class:`Checkpoint` objects bit for bit."""
    day, steps = int(columns["day"]), int(columns["steps_per_day"])
    counts = columns["counts"]
    cum_inf = columns["cum_infections"].tolist()
    cum_dead = columns["cum_deaths"].tolist()
    seeds = columns["seed"].tolist()
    param_rows = zip(*(columns[_PARAM_PREFIX + name].tolist()
                       for name in _PARAM_FIELDS))
    try:
        return [Checkpoint(
            params=DiseaseParameters(**dict(zip(_PARAM_FIELDS, row))),
            snapshot=leap_particle_snapshot(day, counts[i], cum_inf[i],
                                            cum_dead[i], steps, seeds[i]))
            for i, row in enumerate(param_rows)]
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid stored parameters: {exc}") from exc


@dataclass(frozen=True)
class StoreManifest:
    """Summary of what a checkpoint store currently contains."""

    run_id: str
    windows: dict[int, int]
    """Mapping window index -> number of particles its marker promises."""
    complete: dict[int, bool] = field(default_factory=dict)
    """Mapping window index -> whether its completion marker validates."""

    def latest_window(self) -> int | None:
        return max(self.windows) if self.windows else None

    def latest_complete_window(self) -> int | None:
        done = [w for w, ok in self.complete.items() if ok]
        return max(done) if done else None

    def to_dict(self) -> dict:
        return {"run_id": self.run_id,
                "windows": {str(k): v for k, v in self.windows.items()},
                "complete": {str(k): v for k, v in self.complete.items()}}

    @classmethod
    def from_dict(cls, d: dict) -> "StoreManifest":
        return cls(run_id=str(d.get("run_id", "")),
                   windows={int(k): int(v)
                            for k, v in dict(d.get("windows", {})).items()},
                   complete={int(k): bool(v)
                             for k, v in dict(d.get("complete", {})).items()})


class CheckpointStore:
    """File-backed store of restart checkpoints, one sealed file per window."""

    def __init__(self, root: str | os.PathLike, run_id: str = "run") -> None:
        self._root = Path(root)
        self._run_id = str(run_id)
        self._root.mkdir(parents=True, exist_ok=True)

    @property
    def root(self) -> Path:
        return self._root

    @property
    def run_id(self) -> str:
        return self._run_id

    # ------------------------------------------------------------------ #
    def _window_dir(self, window_index: int) -> Path:
        if window_index < 0:
            raise ValueError("window_index must be >= 0")
        return self._root / f"window_{window_index:03d}"

    @staticmethod
    def _read_json(path: Path) -> dict | None:
        """Parse a JSON file; ``None`` when missing or unreadable.

        Unreadable metadata is treated like absent metadata (the window is
        simply not trusted) rather than an exception: restart discovery
        must keep working on a store damaged by the very crash it exists
        to survive.
        """
        if not path.exists():
            return None
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (json.JSONDecodeError, OSError):
            return None
        return payload if isinstance(payload, dict) else None

    def save_window_state(self, window_index: int,
                          checkpoints: Sequence[Checkpoint],
                          meta: dict) -> None:
        """Persist a window's full population plus its metadata.

        Crash-safe write order: ``checkpoints.npz`` and ``state.json``,
        a directory fsync, the ``COMPLETE.json`` marker, a second directory
        fsync, then the manifest.  A crash at any point before the marker
        leaves the window unmarked, so restart discovery treats it as torn
        and falls back to the previous complete window.  Every checkpoint
        must be a restart checkpoint (see the module docstring); the
        window is refused with :class:`CheckpointError` before any file is
        written otherwise.
        """
        if not checkpoints:
            raise ValueError("cannot persist an empty window")
        directory = self._window_dir(window_index)
        columns = _window_columns(checkpoints)
        directory.mkdir(parents=True, exist_ok=True)
        _publish_atomic(directory / _DATA_NAME,
                        lambda fh: np.savez(fh, **columns))
        write_json_atomic(directory / _STATE_NAME, meta)
        _fsync_dir(directory)
        write_json_atomic(directory / _COMPLETE_NAME,
                          {"n_particles": len(checkpoints)})
        _fsync_dir(directory)
        self.write_manifest()

    def expected_count(self, window_index: int) -> int | None:
        """Particle count promised by the completion marker (None = unmarked)."""
        payload = self._read_json(self._window_dir(window_index) / _COMPLETE_NAME)
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
        payload = self._read_json(self._window_dir(window_index) / _STATE_NAME)
        if payload is None:
            raise CheckpointError(
                f"no state metadata stored for window {window_index}")
        return payload

    def load_window_state(self, window_index: int
                          ) -> tuple[list[Checkpoint], dict[str, Any]]:
        """Load a *complete* window's checkpoints and metadata.

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
        columns = _read_window_columns(directory / _DATA_NAME, expected)
        return (_checkpoints_from_columns(columns),
                self.load_window_meta(window_index))

    def particle_count(self, window_index: int) -> int:
        """Particles the window's marker promises; 0 for an unmarked window."""
        return self.expected_count(window_index) or 0

    def stored_windows(self) -> list[int]:
        """Indices of all windows with a directory, complete or not."""
        out = []
        for child in sorted(self._root.glob("window_*")):
            if child.is_dir():
                out.append(int(child.name.split("_", 1)[1]))
        return out

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
        if doomed:
            self.write_manifest()
        return doomed

    # ------------------------------------------------------------------ #
    def write_run_meta(self, fingerprint: dict) -> None:
        """Durably record the run's config/seed fingerprint."""
        write_json_atomic(self._root / _RUN_META_NAME, fingerprint)

    def read_run_meta(self) -> dict | None:
        """The stored fingerprint, or ``None`` for a fresh store."""
        return self._read_json(self._root / _RUN_META_NAME)

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

    # ------------------------------------------------------------------ #
    def write_manifest(self) -> StoreManifest:
        """Scan the store and atomically rewrite the manifest."""
        windows: dict[int, int] = {}
        complete: dict[int, bool] = {}
        for index in self.stored_windows():
            windows[index] = self.particle_count(index)
            complete[index] = self.window_complete(index)
        manifest = StoreManifest(run_id=self._run_id, windows=windows,
                                 complete=complete)
        write_json_atomic(self._root / _MANIFEST_NAME, manifest.to_dict())
        return manifest

    def read_manifest(self) -> StoreManifest:
        path = self._root / _MANIFEST_NAME
        if not path.exists():
            return StoreManifest(run_id=self._run_id, windows={})
        with open(path) as fh:
            return StoreManifest.from_dict(json.load(fh))
