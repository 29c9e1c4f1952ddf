"""Restart state of simulator trajectories (paper section III-B).

The paper checkpoints every posterior trajectory at the window boundary and
restarts it "along a new trajectory" with a fresh random seed and updated
restart knobs (:data:`~repro.seir.parameters.RESTART_FIELDS`) — the
mechanism that makes window-to-window sequential calibration O(window)
instead of O(history).

A window's members differ in their theta alone, so
:class:`StackedLeapState`, the one restart-state format from shard to
disk, holds many same-day binomial-leap rows as columns (compartment
occupancy, cumulative outputs, seeds and, once a calibrator attaches
them, the members' theta) plus the one
:class:`~repro.seir.parameters.DiseaseParameters` record they share.  It
records no RNG state: a restart always begins its seeds' fresh streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .parameters import DiseaseParameters

__all__ = ["CheckpointError", "StackedLeapState"]


class CheckpointError(RuntimeError):
    """Raised for malformed or incompatible checkpoint payloads."""


_ROW_COLUMNS = ("counts", "cum_infections", "cum_deaths", "seeds")


@dataclass(frozen=True, slots=True)
class StackedLeapState:
    """Column-stacked restart state of many same-day binomial-leap members.

    A shard returns it, a particle ensemble carries it and the checkpoint
    store writes it as one ``checkpoints.npz``.  A row is a *restart*
    checkpoint: it runs under ``params`` with its own ``thetas`` entry as
    the transmission rate (the record's own ``transmission_rate`` is never
    read), and its RNG stream is its seed's fresh generator.  ``params``
    and ``thetas`` are set together, by the calibrator; both are ``None``
    in the engine-only state a shard ships.  Slotted, so a pickled state
    (every shard's payload) carries no field names.
    """

    day: int
    steps_per_day: int
    counts: np.ndarray            # (n_particles, n_compartments) int64
    cum_infections: np.ndarray    # (n_particles,) int64
    cum_deaths: np.ndarray        # (n_particles,) int64
    seeds: np.ndarray             # (n_particles,) int64
    params: DiseaseParameters | None = None
    thetas: np.ndarray | None = None  # (n_particles,) float64

    def __post_init__(self) -> None:
        if (self.params is None) != (self.thetas is None):
            raise ValueError("params and thetas must be set together")

    @property
    def n_particles(self) -> int:
        return int(self.counts.shape[0])

    def take(self, index: np.ndarray | Sequence[int] | slice
             ) -> "StackedLeapState":
        """The rows at ``index``, in that order, under the same
        parameters."""
        idx = index if isinstance(index, slice) else \
            np.asarray(index, dtype=np.int64)
        return StackedLeapState(
            self.day, self.steps_per_day,
            *(getattr(self, name)[idx] for name in _ROW_COLUMNS),
            params=self.params,
            thetas=None if self.thetas is None else self.thetas[idx])

    @staticmethod
    def concatenate(states: Sequence["StackedLeapState"]
                    ) -> "StackedLeapState":
        """Stack same-clock states row-wise (engine columns only)."""
        return StackedLeapState(
            states[0].day, states[0].steps_per_day,
            *(np.concatenate([getattr(s, name) for s in states])
              for name in _ROW_COLUMNS))
