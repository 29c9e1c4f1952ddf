"""Checkpoint / restart of simulator state (paper section III-B).

A :class:`Checkpoint` captures everything needed to continue a trajectory
from an intermediate day: the disease parameterisation, the binomial-leap
engine's state snapshot (compartment occupancy, clock, cumulative outputs
and, for scalar runs, the RNG stream), and the optional transmission
schedule.

Restarting accepts a :class:`~repro.seir.parameters.ParameterOverride`
covering exactly the six knobs the paper allows, so a stored posterior
trajectory can be continued "along a new trajectory" with an updated
transmission rate and a fresh random seed — the mechanism that makes
window-to-window sequential calibration O(window) instead of O(history).

:class:`StackedLeapState` is the columnar form of many same-day
binomial-leap restart checkpoints and the one restart-state format from
shard to disk; a scalar :class:`Checkpoint` is built from one of its rows
only on request.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping, Sequence

import numpy as np

from ..data.schedule import PiecewiseConstant
from .parameters import DiseaseParameters, ParameterOverride
from .tauleap import BinomialLeapEngine

__all__ = ["Checkpoint", "CheckpointError", "StackedLeapState",
           "leap_particle_snapshot", "stack_leap_snapshots"]

_FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """Raised for malformed or incompatible checkpoint payloads."""


@dataclass(frozen=True)
class Checkpoint:
    """Immutable, JSON-serialisable snapshot of a simulation.

    Attributes
    ----------
    params:
        Disease parameters in force when the snapshot was taken.
    snapshot:
        Engine state dict (includes the ``engine`` tag naming which engine
        class can consume it).
    theta_schedule:
        Optional transmission schedule the run was using.
    """

    params: DiseaseParameters
    snapshot: dict
    theta_schedule: PiecewiseConstant | None = None

    @property
    def engine_name(self) -> str:
        return str(self.snapshot.get("engine", ""))

    @property
    def day(self) -> int:
        """Simulated day at which the trajectory can be resumed."""
        return int(self.snapshot["day"])

    @property
    def seed(self) -> int:
        return int(self.snapshot["seed"])

    # ------------------------------------------------------------------ #
    def restart(self, override: ParameterOverride | None = None,
                theta_schedule: PiecewiseConstant | None = None) -> Any:
        """Build a resumed engine, optionally re-parameterised.

        Parameters
        ----------
        override:
            The paper's six restart knobs; ``None`` resumes bit-exactly.
        theta_schedule:
            Replacement transmission schedule; defaults to the checkpointed
            one (note an overridden ``transmission_rate`` only takes effect
            when no schedule is active, mirroring the engine precedence).

        Returns
        -------
        A fresh :class:`~repro.seir.tauleap.BinomialLeapEngine` positioned
        at :attr:`day`.  A snapshot from any other engine raises
        :class:`CheckpointError`.
        """
        if self.engine_name != BinomialLeapEngine.name:
            raise CheckpointError(
                f"cannot restart a checkpoint from engine "
                f"{self.engine_name!r}; restart requires "
                f"{BinomialLeapEngine.name} snapshots")
        params = self.params
        seed: int | None = None
        if override is not None:
            params = override.apply_to(params)
            seed = override.seed
        schedule = theta_schedule if theta_schedule is not None else self.theta_schedule
        if override is not None and override.transmission_rate is not None \
                and theta_schedule is None:
            # An explicit transmission-rate override supersedes a stale schedule.
            schedule = None
        return BinomialLeapEngine.from_snapshot(
            self.snapshot, params, seed=seed, theta_schedule=schedule)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        return {
            "format_version": _FORMAT_VERSION,
            "params": self.params.to_dict(),
            "snapshot": self.snapshot,
            "theta_schedule": (self.theta_schedule.to_dict()
                               if self.theta_schedule is not None else None),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Checkpoint":
        version = d.get("format_version")
        if version != _FORMAT_VERSION:
            raise CheckpointError(f"unsupported checkpoint format {version!r}")
        try:
            params = DiseaseParameters.from_dict(d["params"])
            snapshot = dict(d["snapshot"])
            schedule = (PiecewiseConstant.from_dict(d["theta_schedule"])
                        if d.get("theta_schedule") is not None else None)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint payload: {exc}") from exc
        if "engine" not in snapshot or "day" not in snapshot:
            raise CheckpointError("snapshot missing engine/day fields")
        return cls(params=params, snapshot=snapshot, theta_schedule=schedule)

    def save(self, path: str | os.PathLike) -> None:
        """Atomically and durably write the checkpoint as JSON.

        Write-to-temp + ``fsync`` + ``os.replace`` in the same directory:
        a reader (or a resumed run) either sees the complete previous
        content or the complete new content, never a torn file — even
        across a crash between the write and the rename, because the
        payload is flushed to disk before the atomic rename publishes it.
        """
        path = os.fspath(path)
        directory = os.path.dirname(path) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".ckpt.tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(self.to_dict(), fh)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: str | os.PathLike) -> "Checkpoint":
        with open(os.fspath(path)) as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise CheckpointError(f"checkpoint file is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)


# --------------------------------------------------------------------------- #
# Restart state: the columnar form of many same-day leap checkpoints
# --------------------------------------------------------------------------- #
def leap_particle_snapshot(day: int, counts_row: Sequence[int] | np.ndarray,
                           cum_infections: int, cum_deaths: int,
                           steps_per_day: int, seed: int) -> dict:
    """One :class:`StackedLeapState` row as a scalar ``binomial_leap``
    snapshot.  It records no RNG state: a scalar restart without a seed
    override derives the seed's fresh
    :func:`~repro.seir.seeding.generator_for` stream itself."""
    return {"engine": "binomial_leap", "day": int(day),
            "counts": np.asarray(counts_row, dtype=np.int64).tolist(),
            "cum_infections": int(cum_infections),
            "cum_deaths": int(cum_deaths),
            "steps_per_day": int(steps_per_day), "seed": int(seed)}


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

    def checkpoint(self, i: int) -> Checkpoint:
        """Row ``i`` as a scalar :class:`Checkpoint` (the per-particle view)."""
        params = self.take([i]).parameters()[0]
        return Checkpoint(params=params, snapshot=leap_particle_snapshot(
            self.day, self.counts[i], self.cum_infections[i],
            self.cum_deaths[i], self.steps_per_day, self.seeds[i]))

    @classmethod
    def from_checkpoints(cls, checkpoints: Sequence[Checkpoint]
                         ) -> "StackedLeapState":
        """Validate and stack per-particle restart checkpoints; a non-leap
        engine, a mixed clock, a theta schedule or a recorded ``rng_state``
        raises :class:`CheckpointError`."""
        stacked = stack_leap_snapshots([cp.snapshot for cp in checkpoints])
        for i, cp in enumerate(checkpoints):
            why = ("carries an active transmission schedule"
                   if cp.theta_schedule is not None else
                   "records a mid-stream rng_state"
                   if "rng_state" in cp.snapshot else None)
            if why is not None:
                raise CheckpointError(f"checkpoint {i} {why}, so it is not "
                                      "a restart checkpoint")
        return stacked.with_parameters({
            name: np.array([getattr(cp.params, name) for cp in checkpoints])
            for name in _PARAM_FIELDS})


def stack_leap_snapshots(snapshots: Sequence[dict]) -> StackedLeapState:
    """Validate and stack scalar ``binomial_leap`` snapshots for batching.

    Every snapshot must come from the binomial-leap engine family, sit at
    the same simulation day, and use the same ``steps_per_day`` — the batch
    engine advances all members on one clock.  RNG state is *not* stacked:
    a batched restart always begins a fresh batch stream (the paper's
    restart knob 1 applied ensemble-wide; see
    :func:`~repro.seir.seeding.batch_generator_for`).
    """
    if not snapshots:
        raise CheckpointError("cannot stack an empty snapshot list")
    for i, snap in enumerate(snapshots):
        engine = str(snap.get("engine", ""))
        if engine != "binomial_leap":
            raise CheckpointError(
                f"snapshot {i} is from engine {engine!r}; batch restart "
                "requires binomial_leap snapshots")
    try:
        day, steps = int(snapshots[0]["day"]), int(snapshots[0]["steps_per_day"])
        for i, snap in enumerate(snapshots):
            if int(snap["day"]) != day:
                raise CheckpointError(
                    f"snapshot {i} is at day {snap['day']}, expected {day}; "
                    "a batch must share one clock")
            if int(snap["steps_per_day"]) != steps:
                raise CheckpointError(
                    f"snapshot {i} uses steps_per_day={snap['steps_per_day']}, "
                    f"expected {steps}")

        def column(key: str) -> np.ndarray:
            return np.array([snap[key] for snap in snapshots], dtype=np.int64)
        state = StackedLeapState(
            day=day, steps_per_day=steps, counts=column("counts"),
            cum_infections=column("cum_infections"),
            cum_deaths=column("cum_deaths"), seeds=column("seed"))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed leap snapshot: {exc}") from exc
    if steps < 1:
        raise CheckpointError(f"snapshot steps_per_day must be >= 1, got {steps}")
    return state
