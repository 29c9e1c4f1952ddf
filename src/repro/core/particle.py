"""Particles: weighted trajectory hypotheses, stored as columns.

A particle in this framework is richer than a parameter vector — it is the
tuple the paper calibrates: parameters ``theta``, reporting probability
``rho``, the random seed ``s`` (a first-class coordinate, section IV), the
stored simulator state (checkpoint) at the end of the last calibrated
window, and the trajectory history it has generated so far.

Algorithm 1 weighs, resamples and restarts whole clouds of these, so
:class:`ParticleEnsemble` is a struct of columns: ``(n,)`` parameter,
seed, log-weight and ancestor arrays, the restart state as the
:class:`~repro.seir.checkpoint.StackedLeapState` the checkpoint store
writes, and segments and histories kept by genealogy (each window's
trajectories plus the ancestor rows they continue), stacked into one
:class:`~repro.seir.batch_engine.BatchTrajectory` when read.  There is no
per-particle trajectory record: :class:`Particle` is a row view of the
scalar columns only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from ..seir.batch_engine import BatchTrajectory
from ..seir.checkpoint import StackedLeapState
from .weights import (effective_sample_size, normalize_log_weights,
                      weighted_mean, weighted_quantile)

__all__ = ["Particle", "ParticleEnsemble"]


@dataclass(frozen=True)
class Particle:
    """Row ``i`` of a :class:`ParticleEnsemble`, as ``ens[i]`` and
    ``iter(ens)`` build it: the calibration parameters (e.g. ``{"theta":
    0.31, "rho": 0.62}``), the seed, the log-weight and the parent's index
    in the previous posterior (-1 for first-window particles).

    Trajectories and restart state are columnar only
    (:attr:`ParticleEnsemble.segments`, :attr:`~ParticleEnsemble.histories`,
    :attr:`~ParticleEnsemble.restart`), so building a row view gathers
    nothing.
    """

    params: dict[str, float]
    seed: int
    log_weight: float
    ancestor: int

    def value(self, name: str) -> float:
        """Parameter value by name (KeyError if absent)."""
        return self.params[name]


class _Lineage:
    """Stacked trajectories by genealogy, gathered only when read: row
    ``i`` is row ``head_rows[i]`` of the ``head`` lineage (if any) followed
    by row ``tail_rows[i]`` of ``tail``, so resampling and continuing a
    cloud compose index vectors instead of copying ancestors' trajectories.
    """

    def __init__(self, tail: BatchTrajectory, head: "_Lineage | None" = None,
                 tail_rows: np.ndarray | None = None,
                 head_rows: np.ndarray | None = None) -> None:
        self.tail, self.head = tail, head
        self.tail_rows = np.arange(tail.n_particles) if tail_rows is None \
            else tail_rows
        self.head_rows = self.tail_rows if head_rows is None else head_rows

    def __len__(self) -> int:
        return len(self.tail_rows)

    def take(self, index: np.ndarray) -> "_Lineage":
        """Rows ``index``; the tail keeps only the rows still read, so a
        resampled cloud holds just its distinct ancestors."""
        keep, rows = np.unique(self.tail_rows[index], return_inverse=True)
        tail = self.tail if len(keep) == self.tail.n_particles \
            else self.tail.take(keep)
        return _Lineage(tail, self.head, rows.reshape(-1),
                        self.head_rows[index])

    def rows(self, index: np.ndarray | slice = slice(None)
             ) -> BatchTrajectory:
        """The stacked trajectories of rows ``index`` (all by default)."""
        tail = self.tail.take(self.tail_rows[index])
        if self.head is None:
            return tail
        return self.head.rows(self.head_rows[index]).extended_by(tail)


class ParticleEnsemble:
    """An ordered, column-stored collection of particles, built with
    :meth:`from_columns`."""

    @classmethod
    def from_columns(cls, params: Mapping[str, np.ndarray],
                     seeds: np.ndarray, *,
                     log_weights: np.ndarray | None = None,
                     ancestors: np.ndarray | None = None,
                     segments: BatchTrajectory | _Lineage | None = None,
                     histories: BatchTrajectory | _Lineage | None = None,
                     restart: StackedLeapState | None = None
                     ) -> "ParticleEnsemble":
        """An ensemble over existing columns, one row per seed.

        Log-weights default to zero and ancestors to ``-1`` (no parent).
        """
        ensemble = cls.__new__(cls)
        ensemble._init_columns(params, seeds, log_weights, ancestors,
                               segments, histories, restart)
        return ensemble

    def _init_columns(self, params: Mapping[str, np.ndarray],
                      seeds: np.ndarray, log_weights: np.ndarray | None,
                      ancestors: np.ndarray | None,
                      segments: BatchTrajectory | _Lineage | None,
                      histories: BatchTrajectory | _Lineage | None,
                      restart: StackedLeapState | None) -> None:
        self._params = {name: np.asarray(c, dtype=np.float64)
                        for name, c in params.items()}
        self._seeds = np.asarray(seeds, dtype=np.int64)
        n = len(self._seeds)
        self._log_weights = np.zeros(n) if log_weights is None \
            else np.asarray(log_weights, dtype=np.float64)
        self._ancestors = np.full(n, -1, dtype=np.int64) \
            if ancestors is None else np.asarray(ancestors, dtype=np.int64)
        self.restart = restart
        self._segments, self._history = (
            _Lineage(c) if isinstance(c, BatchTrajectory) else c
            for c in (segments, histories))
        rows = {len(c) for c in (*self._params.values(), self._log_weights,
                                 self._ancestors)}
        rows |= {len(c) for c in (self._segments, self._history)
                 if c is not None}
        rows |= set() if restart is None else {restart.n_particles}
        if n < 1 or not self._params or rows != {n}:
            raise ValueError(f"need one or more particles and parameter "
                             f"columns of one length, got {n} seeds and "
                             f"column lengths {sorted(rows)}")

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._seeds)

    def __iter__(self) -> Iterator[Particle]:
        return (self[i] for i in range(len(self)))

    def __getitem__(self, index: int) -> Particle:
        """Row ``index`` as a read-only :class:`Particle` view."""
        i = range(len(self))[index]
        return Particle(
            {name: float(c[i]) for name, c in self._params.items()},
            int(self._seeds[i]), float(self._log_weights[i]),
            int(self._ancestors[i]))

    @property
    def segments(self) -> BatchTrajectory | None:
        """Every particle's latest-window segment, stacked."""
        return None if self._segments is None else self._segments.rows()

    @property
    def histories(self) -> BatchTrajectory | None:
        """Every particle's full history, stacked from its genealogy."""
        return None if self._history is None else self._history.rows()

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._params))

    # ------------------------------------------------------------------ #
    def values(self, name: str) -> np.ndarray:
        """Array of one named parameter across the ensemble."""
        return self._params[name].copy()

    def seeds(self) -> np.ndarray:
        return self._seeds.copy()

    def log_weights(self) -> np.ndarray:
        return self._log_weights.copy()

    def ancestors(self) -> np.ndarray:
        """Parent index of every particle (-1 for first-window particles)."""
        return self._ancestors.copy()

    def normalized_weights(self) -> np.ndarray:
        """Normalised weights (uniform if all log-weights are equal)."""
        return normalize_log_weights(self._log_weights)

    def effective_sample_size(self) -> float:
        return effective_sample_size(self.normalized_weights())

    # ------------------------------------------------------------------ #
    def weighted_mean(self, name: str) -> float:
        return weighted_mean(self._params[name], self.normalized_weights())

    def weighted_quantile(self, name: str,
                          q: float | np.ndarray) -> np.ndarray | float:
        return weighted_quantile(self._params[name], self.normalized_weights(),
                                 q)

    def credible_interval(self, name: str, level: float = 0.9) -> tuple[float, float]:
        """Equal-tailed credible interval at the given level."""
        if not 0 < level < 1:
            raise ValueError("level must be in (0, 1)")
        alpha = (1.0 - level) / 2.0
        lo, hi = self.weighted_quantile(name, np.array([alpha, 1.0 - alpha]))
        return float(lo), float(hi)

    # ------------------------------------------------------------------ #
    def with_log_weights(self, log_weights: np.ndarray) -> "ParticleEnsemble":
        """The same particles under new log-weights (columns shared)."""
        return ParticleEnsemble.from_columns(
            self._params, self._seeds, log_weights=log_weights,
            ancestors=self._ancestors, segments=self._segments,
            histories=self._history, restart=self.restart)

    def continued(self, params: Mapping[str, np.ndarray], seeds: np.ndarray,
                  segments: BatchTrajectory,
                  restart: StackedLeapState) -> "ParticleEnsemble":
        """The next window's ensemble, row ``i`` continuing row ``i`` here:
        its history is this one's followed by its own segment."""
        return ParticleEnsemble.from_columns(
            params, seeds, segments=segments, restart=restart,
            histories=_Lineage(segments, self._history))

    def select(self, indices: Sequence[int] | np.ndarray) -> "ParticleEnsemble":
        """Sub-ensemble by ancestor indices (weights reset to uniform).

        This is the post-resampling constructor: resampled particles are
        equally weighted draws from the weighted ensemble, and each records
        which ancestor it came from.  Every index must lie in ``[0, n)``;
        ``-1`` in particular is the "no parent" ancestor, not the last row.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= len(self)):
            raise ValueError(
                f"indices must lie in [0, {len(self)}), got "
                f"[{idx.min()}, {idx.max()}]")

        def take(column: Any) -> Any:
            return None if column is None else column.take(idx)
        return ParticleEnsemble.from_columns(
            {name: c[idx] for name, c in self._params.items()},
            self._seeds[idx], ancestors=idx, segments=take(self._segments),
            histories=take(self._history), restart=take(self.restart))

    def unique_ancestors(self) -> int:
        """Number of distinct ancestor indices (post-resampling diversity)."""
        return int(np.unique(self._ancestors).size)

    def trajectory_batch(self, which: str = "segment") -> BatchTrajectory:
        """The stacked ``segment`` or ``history`` trajectories."""
        if which not in ("segment", "history"):
            raise ValueError("which must be 'segment' or 'history'")
        batch = self.segments if which == "segment" else self.histories
        if batch is None:
            raise ValueError(f"particle missing {which} trajectory")
        return batch

    def segment_matrix(self, channel: str, start_day: int | None = None,
                       end_day: int | None = None) -> np.ndarray:
        """One segment channel as an ``(n_particles, n_days)`` matrix (a copy).

        ``start_day``/``end_day`` window the segments to ``[start_day,
        end_day)`` (defaulting to their full range), which they must cover.
        """
        seg = self.trajectory_batch("segment")
        lo = seg.start_day if start_day is None else int(start_day)
        hi = seg.end_day if end_day is None else int(end_day)
        if hi < lo:
            raise ValueError("window end before start")
        if seg.start_day > lo or seg.end_day < hi:
            raise ValueError(
                f"segment [{seg.start_day}, {seg.end_day}) does not cover "
                f"requested window [{lo}, {hi})")
        values = seg.channel_matrix(channel)
        return np.array(values[:, lo - seg.start_day:hi - seg.start_day],
                        order="C")

    def param_rows(self) -> list[dict[str, float]]:
        """Every particle's parameters as a plain dict (the JSON shape)."""
        names = list(self._params)
        return [dict(zip(names, row)) for row in
                zip(*(self._params[name].tolist() for name in names))]
