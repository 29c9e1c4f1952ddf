"""The scalar binomial-leap reference engine.

:class:`BinomialLeapEngine` simulates **one trajectory per instance** with
its own :func:`~repro.seir.seeding.generator_for` stream, using the update
of the production :class:`~repro.seir.batch_engine.BatchedBinomialLeapEngine`
one member at a time.  During each substep of length ``dt``:

* every susceptible independently becomes exposed with probability
  ``1 - exp(-lambda * dt)`` where ``lambda`` is the instantaneous force of
  infection, and
* every occupant of a transient compartment exits with probability
  ``1 - exp(-h_tot * dt)`` where ``h_tot`` sums the competing hazards out of
  that compartment; exits are allocated to (hazard-channel, destination)
  pairs by a multinomial draw with probabilities ``h_i / h_tot * p_dest`` —
  the exact conditional law for competing exponential risks.

No production path builds it.  It keeps the paper's per-particle invariant
— ``(theta, s)`` maps one-to-one to a trajectory, returned as a one-row
:class:`~repro.seir.batch_engine.BatchTrajectory` — and is the oracle the
batched engine is checked against: bit for bit as a one-member batch on
the same stream (``tests/seir/test_engine_agreement.py``), in distribution
as a whole batch, and per restart row
(:meth:`BinomialLeapEngine.from_state_row`, driven by
:func:`repro.testing.restart_oracle`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..data.schedule import PiecewiseConstant
from ..seir.batch_engine import BatchTrajectory
from ..seir.checkpoint import CheckpointError, StackedLeapState
from ..seir.compartments import Compartment, N_COMPARTMENTS
from ..seir.parameters import DiseaseParameters
from ..seir.seeding import generator_for
from ..seir.tauleap import compiled_transitions_for

__all__ = ["BinomialLeapEngine", "TrajectoryBuilder"]

# Hot-loop integer constants (enum attribute access is measurably slow).
_S = int(Compartment.S)
_E = int(Compartment.E)
_H_U, _H_D = int(Compartment.H_U), int(Compartment.H_D)
_HP_U, _HP_D = int(Compartment.HP_U), int(Compartment.HP_D)
_C_U, _C_D = int(Compartment.C_U), int(Compartment.C_D)


@dataclass
class TrajectoryBuilder:
    """Mutable accumulator the scalar engines append one day at a time;
    :meth:`build` returns the run as a one-row :class:`BatchTrajectory`."""

    start_day: int
    _infections: list[float] = field(default_factory=list)
    _deaths: list[float] = field(default_factory=list)
    _hospital: list[float] = field(default_factory=list)
    _icu: list[float] = field(default_factory=list)

    def append_day(self, infections: float, deaths: float,
                   hospital_census: float, icu_census: float) -> None:
        self._infections.append(float(infections))
        self._deaths.append(float(deaths))
        self._hospital.append(float(hospital_census))
        self._icu.append(float(icu_census))

    def __len__(self) -> int:
        return len(self._infections)

    def build(self) -> BatchTrajectory:
        return BatchTrajectory(self.start_day,
                               *(np.asarray([days], dtype=np.float64)
                                 for days in (self._infections, self._deaths,
                                              self._hospital, self._icu)))


def _theta_function(params: DiseaseParameters,
                    schedule: PiecewiseConstant | None) -> Callable[[float], float]:
    if schedule is None:
        theta = float(params.transmission_rate)
        return lambda _t: theta
    return lambda t: float(schedule(int(t)))


class BinomialLeapEngine:
    """Chain-binomial stochastic SEIR engine for a single trajectory.

    Parameters
    ----------
    params:
        Disease parameterisation.
    seed:
        Particle random seed; fully determines the trajectory given params.
    steps_per_day:
        Substeps per simulated day (leap accuracy knob; 4 by default).
    theta_schedule:
        Optional piecewise transmission-rate schedule overriding
        ``params.transmission_rate`` day by day.
    start_day:
        Day index at which this engine's clock begins.
    """

    name = "binomial_leap"

    def __init__(self, params: DiseaseParameters, seed: int, *,
                 steps_per_day: int = 4,
                 theta_schedule: PiecewiseConstant | None = None,
                 start_day: int = 0) -> None:
        if steps_per_day < 1:
            raise ValueError("steps_per_day must be >= 1")
        self.params = params
        self.seed = int(seed)
        self.steps_per_day = int(steps_per_day)
        self.theta_schedule = theta_schedule
        self._theta_of = _theta_function(params, theta_schedule)
        self._table = compiled_transitions_for(params)
        self._prepare_fast_tables()
        self._rng = generator_for(seed)

        self._day = int(start_day)
        self._counts = np.zeros(N_COMPARTMENTS, dtype=np.int64)
        self._counts[Compartment.S] = params.population - params.initial_exposed
        self._counts[Compartment.E] = params.initial_exposed
        self._cum_infections = 0
        self._cum_deaths = 0

    # ------------------------------------------------------------------ #
    # State access
    # ------------------------------------------------------------------ #
    @property
    def day(self) -> int:
        """Current simulation day (start of the next unsimulated day)."""
        return self._day

    @property
    def counts(self) -> np.ndarray:
        """Copy of the current compartment occupancy vector."""
        return self._counts.copy()

    def count_of(self, compartment: Compartment) -> int:
        return int(self._counts[compartment])

    @property
    def cumulative_infections(self) -> int:
        return int(self._cum_infections)

    @property
    def cumulative_deaths(self) -> int:
        return int(self._cum_deaths)

    # ------------------------------------------------------------------ #
    # Dynamics
    # ------------------------------------------------------------------ #
    def _prepare_fast_tables(self) -> None:
        """Precompute per-substep constants (exit probabilities, int lists)."""
        dt = 1.0 / self.steps_per_day
        self._p_exit = -np.expm1(-self._table.total_hazards * dt)
        self._src_list = [int(s) for s in self._table.sources]

    def _force_of_infection(self, theta: float) -> float:
        weighted = float(self._table.infection_weights @ self._counts)
        return theta * weighted / self.params.population

    def _substep(self, theta: float, dt: float) -> tuple[int, int]:
        """Advance one substep; return (new_infections, new_deaths)."""
        counts = self._counts
        table = self._table
        rng = self._rng

        lam = self._force_of_infection(theta)
        new_e = 0
        if lam > 0.0 and counts[_S] > 0:
            p_inf = -np.expm1(-lam * dt)
            new_e = int(rng.binomial(counts[_S], p_inf))

        # One vectorised draw for the total exits of every transient source.
        n_exit = rng.binomial(counts[table.sources], self._p_exit)

        delta = np.zeros(N_COMPARTMENTS, dtype=np.int64)
        delta[_S] -= new_e
        delta[_E] += new_e

        new_deaths = 0
        src_list = self._src_list
        dest_lists = table.dest_indices
        for i in range(len(src_list)):
            k = int(n_exit[i])
            if k == 0:
                continue
            dests = dest_lists[i]
            delta[src_list[i]] -= k
            if len(dests) == 1:
                delta[dests[0]] += k
                if table.dest_is_death[i][0]:
                    new_deaths += k
            else:
                allocated = rng.multinomial(k, table.dest_probs[i])
                delta[dests] += allocated
                death_mask = table.dest_is_death[i]
                if death_mask.any():
                    new_deaths += int(allocated[death_mask].sum())

        counts += delta
        return new_e, new_deaths

    def step_day(self) -> tuple[int, int]:
        """Simulate one full day; return (new_infections, new_deaths)."""
        theta = self._theta_of(self._day)
        dt = 1.0 / self.steps_per_day
        day_inf = 0
        day_dead = 0
        for _ in range(self.steps_per_day):
            inf, dead = self._substep(theta, dt)
            day_inf += inf
            day_dead += dead
        self._day += 1
        self._cum_infections += day_inf
        self._cum_deaths += day_dead
        return day_inf, day_dead

    def _census(self) -> tuple[int, int]:
        c = self._counts
        hosp = int(c[_H_U] + c[_H_D] + c[_HP_U] + c[_HP_D])
        icu = int(c[_C_U] + c[_C_D])
        return hosp, icu

    def run_until(self, end_day: int) -> BatchTrajectory:
        """Simulate days ``[current_day, end_day)`` and return their record
        (one row)."""
        if end_day < self._day:
            raise ValueError(f"end_day {end_day} is before current day {self._day}")
        builder = TrajectoryBuilder(self._day)
        while self._day < end_day:
            inf, dead = self.step_day()
            hosp, icu = self._census()
            builder.append_day(inf, dead, hosp, icu)
        return builder.build()

    # ------------------------------------------------------------------ #
    # Restart
    # ------------------------------------------------------------------ #
    @classmethod
    def from_state_row(cls, state: StackedLeapState, i: int,
                       seed: int) -> "BinomialLeapEngine":
        """Restart row ``i`` of ``state`` under the state's parameter
        record with the row's theta as the transmission rate.

        The engine continues from the row's clock, occupancy and cumulative
        outputs on ``seed``'s fresh :func:`generator_for` stream (the
        paper's restart knob 1); an engine-only state (no parameters
        attached) raises :class:`~repro.seir.checkpoint.CheckpointError`.
        """
        if state.params is None or state.thetas is None:
            raise CheckpointError("restart rows carry no stored parameters")
        params = state.params.with_updates(
            transmission_rate=float(state.thetas[i]))
        engine = cls(params, int(seed),
                     steps_per_day=state.steps_per_day, start_day=state.day)
        engine._counts = state.counts[i].astype(np.int64, copy=True)
        engine._cum_infections = int(state.cum_infections[i])
        engine._cum_deaths = int(state.cum_deaths[i])
        return engine
