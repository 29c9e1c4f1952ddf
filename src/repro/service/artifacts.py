"""Crash-safe forecast artifact publication and degraded reads.

Each calibrated window publishes one artifact directory::

    <root>/
      LATEST.json            # {"window_index": N} — atomic pointer
      window_000/
        forecast.json        # the servable payload, canonical JSON
        SEALED.json          # {"window_index", "files": {name: sha256}}
      window_001/
        ...

Every file is published with the write-temp + ``fsync`` + ``os.replace``
discipline (:func:`repro.hpc.checkpoint_io.write_json_atomic`), and the
seal — which records the content hash of every payload file — is written
strictly last.  A reader therefore never observes a torn artifact: either
the seal is absent (the window is not servable yet) or it validates the
exact bytes on disk.  ``forecast.json`` is canonical (sorted keys), so its
bytes are a pure function of the payload — the property the service's
kill-and-restart bit-identity tests assert file-for-file.

Reads degrade instead of erroring: :meth:`ArtifactStore.read_latest` walks
back from the newest sealed window past anything torn or missing, and tags
the result stale-with-age (windows behind the requested head, plus
wall-clock seconds since its seal) whenever it serves anything but the
window the caller hoped for.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from ..hpc.checkpoint_io import (read_json, window_directory, window_indices,
                                 write_json_atomic)

__all__ = ["ArtifactStore", "ArtifactRead"]

_SEAL_NAME = "SEALED.json"
_FORECAST_NAME = "forecast.json"
_LATEST_NAME = "LATEST.json"


@dataclass(frozen=True)
class ArtifactRead:
    """One successful (possibly degraded) artifact read.

    ``stale`` is True whenever the served window is not the one the caller
    asked for; ``windows_behind`` counts how far behind it is (0 when the
    head was served), and ``age_seconds`` is the wall-clock age of the
    served artifact's seal — together they are the degradation contract's
    "stale-with-age" tag.
    """

    window_index: int
    payload: Mapping[str, Any]
    path: Path
    stale: bool
    windows_behind: int
    age_seconds: float


class ArtifactStore:
    """File-backed store of sealed per-window forecast artifacts."""

    def __init__(self, root: str | os.PathLike) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)

    @property
    def root(self) -> Path:
        return self._root

    def window_dir(self, window_index: int) -> Path:
        return window_directory(self._root, window_index)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _canonical_bytes(payload: Mapping[str, Any]) -> bytes:
        return json.dumps(payload, sort_keys=True).encode()

    @staticmethod
    def _sha256(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    def publish(self, window_index: int, payload: Mapping[str, Any]) -> Path:
        """Atomically publish and seal one window's forecast artifact.

        Write order: ``forecast.json`` (canonical bytes, atomic), then the
        seal recording its content hash, then the latest pointer.  A crash
        between any two steps leaves the previous sealed window fully
        servable and this window invisible or torn-and-skipped — never a
        half-readable head.
        """
        directory = self.window_dir(window_index)
        body = self._canonical_bytes(payload)
        write_json_atomic(directory / _FORECAST_NAME,
                          json.loads(body), sort_keys=True)
        seal = {"window_index": int(window_index),
                "files": {_FORECAST_NAME: self._sha256(body)}}
        write_json_atomic(directory / _SEAL_NAME, seal, sort_keys=True)
        latest = self.latest_sealed()
        if latest is None or latest <= window_index:
            write_json_atomic(self._root / _LATEST_NAME,
                              {"window_index": int(window_index)},
                              sort_keys=True)
        return directory

    # ------------------------------------------------------------------ #
    def sealed_windows(self) -> list[int]:
        """Indices of every window directory carrying a seal file, in
        numeric order
        (see :func:`~repro.hpc.checkpoint_io.window_indices`)."""
        return [index for index in window_indices(self._root)
                if (self.window_dir(index) / _SEAL_NAME).exists()]

    def latest_sealed(self) -> int | None:
        sealed = self.sealed_windows()
        return sealed[-1] if sealed else None

    def validate(self, window_index: int) -> bool:
        """Whether the window's seal matches the bytes on disk."""
        seal = read_json(self.window_dir(window_index) / _SEAL_NAME)
        if seal is None:
            return False
        files = seal.get("files")
        if not isinstance(files, dict) or _FORECAST_NAME not in files:
            return False
        directory = self.window_dir(window_index)
        for name, digest in files.items():
            try:
                data = (directory / name).read_bytes()
            except OSError:
                return False
            if self._sha256(data) != digest:
                return False
        return True

    def _age_seconds(self, window_index: int) -> float:
        seal_path = self.window_dir(window_index) / _SEAL_NAME
        try:
            sealed_at = seal_path.stat().st_mtime
        except OSError:
            return 0.0
        # repro-allow: REPRO201 staleness age is wall-clock by definition
        return max(0.0, time.time() - sealed_at)

    def read_latest(self, expected_window: int | None = None
                    ) -> ArtifactRead | None:
        """Serve the newest valid artifact, degraded if necessary.

        Walks sealed windows newest-first, skipping any that fail seal
        validation (a torn artifact is served *around*, never served).
        ``expected_window`` is the window the caller considers current
        (the calibration head the service should have reached); the read
        is tagged stale whenever the served window falls short of it.
        Returns ``None`` only when no valid artifact exists at all.
        """
        sealed = self.sealed_windows()
        for index in reversed(sealed):
            if not self.validate(index):
                continue
            path = self.window_dir(index) / _FORECAST_NAME
            with open(path) as fh:
                payload = json.load(fh)
            behind = (max(0, expected_window - index)
                      if expected_window is not None else 0)
            return ArtifactRead(
                window_index=index, payload=payload, path=path,
                stale=behind > 0 or index != (sealed[-1] if sealed else index),
                windows_behind=behind,
                age_seconds=self._age_seconds(index))
        return None

    def prune(self, keep_last: int) -> list[int]:
        """Retention GC mirroring the checkpoint store's: keep the newest
        ``keep_last`` sealed artifacts, never touch unsealed directories."""
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        doomed = self.sealed_windows()[:-keep_last]
        for index in doomed:
            shutil.rmtree(self.window_dir(index))
        return doomed
