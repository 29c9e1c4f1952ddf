"""Exact stochastic simulation (Gillespie SSA) test oracle.

The direct-method SSA simulates every transition event individually with
exponential waiting times, making it the exact reference law for the
compartment topology.  Cost scales with the total number of events, so this
engine is meant for small populations and is on no calibration path: it is
the law the binomial-leap engine is checked against in distribution (see
``tests/seir/test_engine_agreement.py`` and ``benchmarks/bench_engines.py``).
Its snapshots carry the ``"gillespie"`` engine tag, which every restart
path refuses.

Time-varying transmission is handled by restricting each SSA step to the
current integer day: rates are constant within a day (the schedule is
piecewise-constant on days), and steps that would cross the day boundary are
truncated, which keeps the method exact for the day-resolved process.
"""

from __future__ import annotations

import numpy as np

from ..data.schedule import PiecewiseConstant
from ..seir.compartments import Compartment, N_COMPARTMENTS
from ..seir.outputs import Trajectory, TrajectoryBuilder
from ..seir.parameters import DiseaseParameters
from ..seir.seeding import (generator_for, rng_from_jsonable,
                            rng_state_to_jsonable)
from ..seir.tauleap import _theta_function, compiled_transitions_for

__all__ = ["GillespieEngine"]


class GillespieEngine:
    """Exact SSA engine for a single trajectory (small populations).

    Shares parameterisation, seeding, snapshot, and output conventions with
    :class:`~repro.seir.tauleap.BinomialLeapEngine`.
    """

    name = "gillespie"

    def __init__(self, params: DiseaseParameters, seed: int, *,
                 theta_schedule: PiecewiseConstant | None = None,
                 start_day: int = 0,
                 max_events_per_day: int = 2_000_000) -> None:
        self.params = params
        self.seed = int(seed)
        self.theta_schedule = theta_schedule
        self._theta_of = _theta_function(params, theta_schedule)
        self._table = compiled_transitions_for(params)
        self._rng = generator_for(seed)
        self._max_events_per_day = int(max_events_per_day)

        self._day = int(start_day)
        self._counts = np.zeros(N_COMPARTMENTS, dtype=np.int64)
        self._counts[Compartment.S] = params.population - params.initial_exposed
        self._counts[Compartment.E] = params.initial_exposed
        self._cum_infections = 0
        self._cum_deaths = 0

    # ------------------------------------------------------------------ #
    @property
    def day(self) -> int:
        return self._day

    @property
    def counts(self) -> np.ndarray:
        return self._counts.copy()

    def count_of(self, compartment: Compartment) -> int:
        return int(self._counts[compartment])

    @property
    def cumulative_infections(self) -> int:
        return int(self._cum_infections)

    @property
    def cumulative_deaths(self) -> int:
        return int(self._cum_deaths)

    def population_conserved(self) -> bool:
        return int(self._counts.sum()) == self.params.population

    # ------------------------------------------------------------------ #
    def _rates(self, theta: float) -> tuple[float, np.ndarray]:
        """Return (infection_rate, per-source transition rates)."""
        counts = self._counts
        weighted = float(self._table.infection_weights @ counts)
        lam = theta * weighted / self.params.population
        infection_rate = lam * counts[Compartment.S]
        source_rates = self._table.total_hazards * counts[self._table.sources]
        return infection_rate, source_rates

    def step_day(self) -> tuple[int, int]:
        """Simulate one day of events exactly; return (infections, deaths)."""
        theta = self._theta_of(self._day)
        rng = self._rng
        t = 0.0
        day_inf = 0
        day_dead = 0
        events = 0
        while True:
            infection_rate, source_rates = self._rates(theta)
            total = infection_rate + float(source_rates.sum())
            if total <= 0.0:
                break
            t += rng.exponential(1.0 / total)
            if t >= 1.0:
                break
            events += 1
            if events > self._max_events_per_day:
                raise RuntimeError(
                    "Gillespie event budget exceeded; population too large "
                    "for the exact engine — use BinomialLeapEngine")
            u = rng.uniform(0.0, total)
            if u < infection_rate:
                self._counts[Compartment.S] -= 1
                self._counts[Compartment.E] += 1
                day_inf += 1
                continue
            u -= infection_rate
            idx = int(np.searchsorted(np.cumsum(source_rates), u, side="right"))
            idx = min(idx, len(source_rates) - 1)
            src = int(self._table.sources[idx])
            dests = self._table.dest_indices[idx]
            probs = self._table.dest_probs[idx]
            if len(dests) == 1:
                dst = int(dests[0])
            else:
                dst = int(rng.choice(dests, p=probs))
            self._counts[src] -= 1
            self._counts[dst] += 1
            if dst in (Compartment.D_U, Compartment.D_D):
                day_dead += 1
        self._day += 1
        self._cum_infections += day_inf
        self._cum_deaths += day_dead
        return day_inf, day_dead

    def _census(self) -> tuple[int, int]:
        c = self._counts
        hosp = int(c[Compartment.H_U] + c[Compartment.H_D]
                   + c[Compartment.HP_U] + c[Compartment.HP_D])
        icu = int(c[Compartment.C_U] + c[Compartment.C_D])
        return hosp, icu

    def run_until(self, end_day: int) -> Trajectory:
        if end_day < self._day:
            raise ValueError(f"end_day {end_day} is before current day {self._day}")
        builder = TrajectoryBuilder(self._day)
        while self._day < end_day:
            inf, dead = self.step_day()
            hosp, icu = self._census()
            builder.append_day(inf, dead, hosp, icu)
        return builder.build()

    # ------------------------------------------------------------------ #
    def state_snapshot(self) -> dict:
        return {
            "engine": self.name,
            "day": self._day,
            "counts": self._counts.tolist(),
            "cum_infections": int(self._cum_infections),
            "cum_deaths": int(self._cum_deaths),
            "seed": self.seed,
            "rng_state": rng_state_to_jsonable(self._rng),
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict, params: DiseaseParameters, *,
                      seed: int | None = None,
                      theta_schedule: PiecewiseConstant | None = None,
                      ) -> "GillespieEngine":
        engine = cls.__new__(cls)
        engine.params = params
        engine.theta_schedule = theta_schedule
        engine._theta_of = _theta_function(params, theta_schedule)
        engine._table = compiled_transitions_for(params)
        engine._max_events_per_day = 2_000_000
        engine._day = int(snapshot["day"])
        engine._counts = np.asarray(snapshot["counts"], dtype=np.int64).copy()
        engine._cum_infections = int(snapshot["cum_infections"])
        engine._cum_deaths = int(snapshot["cum_deaths"])
        if seed is not None:
            engine.seed = int(seed)
            engine._rng = generator_for(int(seed))
        else:
            engine.seed = int(snapshot["seed"])
            engine._rng = rng_from_jsonable(snapshot["rng_state"])
        return engine
