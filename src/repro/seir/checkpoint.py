"""Restart state of simulator trajectories (paper section III-B).

The paper checkpoints every posterior trajectory at the window boundary and
restarts it "along a new trajectory" with a fresh random seed and updated
restart knobs (:data:`~repro.seir.parameters.RESTART_FIELDS`) — the
mechanism that makes window-to-window sequential calibration O(window)
instead of O(history).

:class:`StackedLeapState` is the one restart-state format, from shard to
disk: many same-day binomial-leap rows as columns (compartment occupancy,
cumulative outputs, seeds and, once a calibrator attaches them, one column
per :class:`~repro.seir.parameters.DiseaseParameters` field).  It records
no RNG state: a restart always begins its seeds' fresh streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Mapping, Sequence

import numpy as np

from .parameters import DiseaseParameters

__all__ = ["CheckpointError", "StackedLeapState"]


class CheckpointError(RuntimeError):
    """Raised for malformed or incompatible checkpoint payloads."""


_PARAM_FIELDS = tuple(f.name for f in fields(DiseaseParameters))
_ROW_COLUMNS = ("counts", "cum_infections", "cum_deaths", "seeds")


@dataclass(frozen=True)
class StackedLeapState:
    """Column-stacked restart state of many same-day binomial-leap members.

    A shard returns it, a particle ensemble carries it and the checkpoint
    store writes it as one ``checkpoints.npz``.  A row is a *restart*
    checkpoint: theta is its ``transmission_rate`` and its RNG stream is
    its seed's fresh generator.  ``params`` maps every
    :class:`DiseaseParameters` field to its ``(n,)`` column in the field's
    own dtype; it is empty in the engine-only state a shard ships.
    """

    day: int
    steps_per_day: int
    counts: np.ndarray            # (n_particles, n_compartments) int64
    cum_infections: np.ndarray    # (n_particles,) int64
    cum_deaths: np.ndarray        # (n_particles,) int64
    seeds: np.ndarray             # (n_particles,) int64
    params: Mapping[str, np.ndarray] = field(default_factory=dict)

    @property
    def n_particles(self) -> int:
        return int(self.counts.shape[0])

    def take(self, index: np.ndarray | Sequence[int] | slice, *,
             params: bool = True) -> "StackedLeapState":
        """The rows at ``index``, in that order (``params=False`` drops the
        parameter columns, e.g. for a lean shard payload)."""
        idx = index if isinstance(index, slice) else \
            np.asarray(index, dtype=np.int64)
        return StackedLeapState(
            self.day, self.steps_per_day,
            *(getattr(self, name)[idx] for name in _ROW_COLUMNS),
            params=({name: column[idx] for name, column in self.params.items()}
                    if params else {}))

    @staticmethod
    def concatenate(states: Sequence["StackedLeapState"]
                    ) -> "StackedLeapState":
        """Stack same-clock states row-wise (engine columns only)."""
        return StackedLeapState(
            states[0].day, states[0].steps_per_day,
            *(np.concatenate([getattr(s, name) for s in states])
              for name in _ROW_COLUMNS))

    def with_parameters(self, columns: Mapping[str, np.ndarray]
                        ) -> "StackedLeapState":
        """This state with one ``(n,)`` parameter column per
        :class:`DiseaseParameters` field, taken from ``columns``."""
        return replace(self, params={name: columns[name]
                                     for name in _PARAM_FIELDS})

    def parameters(self) -> list[DiseaseParameters]:
        """Row ``i``'s :class:`DiseaseParameters`, for every row."""
        try:
            rows = zip(*(self.params[name].tolist() for name in _PARAM_FIELDS))
            return [DiseaseParameters(**dict(zip(_PARAM_FIELDS, row)))
                    for row in rows]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"invalid stored parameters: {exc}") from exc
