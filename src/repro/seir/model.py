"""Facade over the scalar binomial-leap engine.

:class:`StochasticSEIRModel` is the one-trajectory object ground truths and
the examples talk to: construct it from parameters and a seed (or from a
checkpoint plus override), advance it window by window, and snapshot it
between windows.  Calibration itself runs the batched engine
(:mod:`repro.seir.batch_engine`) through :mod:`repro.hpc.sharding`.
"""

from __future__ import annotations

from ..data.schedule import PiecewiseConstant
from .checkpoint import Checkpoint
from .compartments import Compartment
from .outputs import Trajectory
from .parameters import DiseaseParameters, ParameterOverride
from .tauleap import BinomialLeapEngine

__all__ = ["StochasticSEIRModel"]


class StochasticSEIRModel:
    """One stochastic trajectory with windowed advancement and checkpoints.

    Parameters
    ----------
    params:
        Disease parameterisation.
    seed:
        Trajectory seed; together with ``params`` it determines the run.
    theta_schedule:
        Optional piecewise transmission schedule (ground-truth runs).
    engine_options:
        Extra :class:`~repro.seir.tauleap.BinomialLeapEngine` keyword
        arguments (e.g. ``steps_per_day``).
    """

    def __init__(self, params: DiseaseParameters, seed: int, *,
                 theta_schedule: PiecewiseConstant | None = None,
                 **engine_options) -> None:
        self._engine = BinomialLeapEngine(
            params, seed, theta_schedule=theta_schedule, **engine_options)
        self._history: Trajectory | None = None

    # ------------------------------------------------------------------ #
    @classmethod
    def from_checkpoint(cls, checkpoint: Checkpoint,
                        override: ParameterOverride | None = None,
                        theta_schedule: PiecewiseConstant | None = None,
                        ) -> "StochasticSEIRModel":
        """Resume a stored trajectory, optionally re-parameterised."""
        model = cls.__new__(cls)
        model._engine = checkpoint.restart(override, theta_schedule)
        model._history = None
        return model

    # ------------------------------------------------------------------ #
    @property
    def day(self) -> int:
        return self._engine.day

    @property
    def params(self) -> DiseaseParameters:
        return self._engine.params

    @property
    def seed(self) -> int:
        return self._engine.seed

    def count_of(self, compartment: Compartment) -> int:
        return self._engine.count_of(compartment)

    @property
    def cumulative_infections(self) -> int:
        return self._engine.cumulative_infections

    @property
    def cumulative_deaths(self) -> int:
        return self._engine.cumulative_deaths

    def population_conserved(self) -> bool:
        return self._engine.population_conserved()

    @property
    def history(self) -> Trajectory | None:
        """Everything simulated by *this* model object so far."""
        return self._history

    # ------------------------------------------------------------------ #
    def run_until(self, end_day: int) -> Trajectory:
        """Advance to ``end_day``; returns the newly simulated segment."""
        segment = self._engine.run_until(end_day)
        if self._history is None:
            self._history = segment
        elif len(segment):
            self._history = self._history.extended_by(segment)
        return segment

    def run_window(self, start_day: int, end_day: int) -> Trajectory:
        """Advance through ``[start_day, end_day)``.

        The model must currently sit exactly at ``start_day`` — windows in the
        sequential scheme are contiguous, and silently fast-forwarding would
        hide scheduling bugs.
        """
        if self.day != start_day:
            raise ValueError(
                f"model is at day {self.day}, cannot run window starting {start_day}")
        return self.run_until(end_day)

    def checkpoint(self) -> Checkpoint:
        """Snapshot the current state for later restart."""
        return Checkpoint(params=self._engine.params,
                          snapshot=self._engine.state_snapshot(),
                          theta_schedule=self._engine.theta_schedule)
