"""Batched binomial-leap engine: the whole particle cloud as one matrix.

:class:`BatchedBinomialLeapEngine` advances an entire ensemble as a single
``(n_particles, n_compartments)`` int64 state matrix.  Per substep it issues

* one vectorised ``binomial`` over the susceptible column for infections
  (per-particle force of infection, so every member keeps its own theta),
* one ``binomial`` over the ``(n_particles, n_sources)`` occupancy matrix
  for the total exits of every transient compartment, and
* one batched allocation per *active* multi-destination source (a
  complementary ``binomial`` for two-way splits, ``multinomial`` otherwise),

replacing ``n_particles`` scalar engine objects and Python substep loops
with a handful of NumPy calls per substep.  Dynamics are identical in law
to the scalar reference :class:`repro.testing.BinomialLeapEngine` — same
transition table (:func:`~repro.seir.tauleap.compiled_transitions_for`),
same per-substep exit probabilities — which is what the scalar/batched
parity tests assert distributionally (matched means/variances of daily
infections, deaths and census under common parameters).  This is the one
production engine: the calibrator, the forecast and the ground truth all
run on it.

Batch RNG contract
------------------
All members draw from **one** shared generator keyed by the *ordered* seed
vector (:func:`~repro.seir.seeding.batch_generator_for`; see the draw-order
precedent in :mod:`repro.core.observation`).  Consequences, in contract form:

* A batched run is bit-reproducible given ``(base_seed, seed vector,
  ensemble order)`` — the calibrator derives the seed vector from its
  :class:`~repro.seir.seeding.SeedSequenceBank`, so fixing the base seed
  fixes the whole batched simulation.
* The stream is consumed substep-major: infections for all particles, then
  the exit matrix, then allocation draws source-by-source in table order —
  allocation draws are issued only for sources with at least one exit
  anywhere in the batch (a deterministic function of the state).
* Per-member draws depend on the batch composition, so the scalar
  invariant ``(theta, s) -> trajectory`` is relaxed to batch level: scalar
  and batched trajectories for the same seed agree in distribution, not
  bit-for-bit.  The paper's common-random-numbers replicate coupling is
  likewise distributional only under batching.
* A one-member batch given the scalar stream (``rng=generator_for(seed)``)
  issues exactly the scalar reference's draws, so it reproduces that
  trajectory bit for bit.  The ground truth (:mod:`repro.sim.groundtruth`)
  runs this way, setting :attr:`~BatchedBinomialLeapEngine.thetas` at each
  segment of its piecewise-constant schedule.

Per-shard extension (sharded dispatch)
--------------------------------------
When a batch is split into contiguous shards to use several executor
workers (:mod:`repro.hpc.sharding`), **each shard is its own batch**: its
stream is keyed by the ordered seed vector of its slice alone
(:func:`~repro.seir.seeding.batch_generator_for` over the slice).
Therefore

* a sharded run is bit-reproducible given ``(base_seed, shard layout)``
  and independent of *which* executor runs the shards (serial and process
  pools agree bit-for-bit for the same layout),
* a single shard covering the whole group reproduces the unsharded batch
  stream exactly (the serial fast path), and
* changing the shard layout re-keys every shard's stream — results across
  layouts agree in distribution only, exactly as scalar vs batched do.

Restart state is columnar: a batch's rows travel as one
:class:`~repro.seir.checkpoint.StackedLeapState` with no RNG state (a batch
stream cannot be partitioned per member), and
:meth:`BatchedBinomialLeapEngine.from_particle_snapshots` restarts a whole
cloud from it on a fresh batch stream keyed by the new seed vector.  The
scalar oracle restarts one row of the same state
(:meth:`repro.testing.BinomialLeapEngine.from_state_row`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .checkpoint import StackedLeapState
from .compartments import (Compartment, HOSPITAL_COMPARTMENTS,
                           ICU_COMPARTMENTS, N_COMPARTMENTS)
from .parameters import DiseaseParameters
from .seeding import batch_generator_for
from .tauleap import compiled_transitions_for

__all__ = ["BatchedBinomialLeapEngine", "BatchTrajectory"]

_S = int(Compartment.S)
_E = int(Compartment.E)


_HOSP_COLS = np.array([int(c) for c in HOSPITAL_COMPARTMENTS], dtype=np.int64)
_ICU_COLS = np.array([int(c) for c in ICU_COMPARTMENTS], dtype=np.int64)

#: The one channel dtype.  ``DiseaseParameters.population`` is at most
#: ``2**31 - 1``, so no daily count or census can overflow it.
_CHANNEL_DTYPE = np.dtype(np.int32)
_CHANNEL_RANGE = np.iinfo(_CHANNEL_DTYPE)


def _as_channel(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` as an exact int32 count matrix (no copy if it is one).

    Integral input of another dtype (a scalar oracle's float recorder) is
    converted; a non-integral or out-of-range entry is a ``ValueError``.
    """
    values = np.asarray(matrix)
    if values.dtype == _CHANNEL_DTYPE:
        return values
    if values.dtype.kind == "f" and not np.all(np.trunc(values) == values):
        raise ValueError("channel entries must be integral counts")
    if values.size and (values.min() < _CHANNEL_RANGE.min
                        or values.max() > _CHANNEL_RANGE.max):
        raise ValueError(f"channel entries must fit {_CHANNEL_DTYPE}, got "
                         f"[{values.min()}, {values.max()}]")
    return values.astype(_CHANNEL_DTYPE)


class BatchTrajectory:
    """Stacked daily outputs of a batched run over ``[start_day, end_day)``.

    Channel matrices are ``(n_particles, n_days)`` exact int32 counts, row
    ``i`` being member ``i``'s record; integral input of another dtype is
    converted, and a non-integral or out-of-int32-range entry is a
    ``ValueError``.  It is the only trajectory record: the
    calibrator's :class:`~repro.core.particle.ParticleEnsemble` keeps its
    segments and histories in this stacked form, gathered and extended
    whole, and a single run (the ground truth, a scalar oracle's) is a
    one-row batch.
    """

    def __init__(self, start_day: int, infections: np.ndarray,
                 deaths: np.ndarray, hospital_census: np.ndarray,
                 icu_census: np.ndarray) -> None:
        self.start_day = int(start_day)
        mats = [_as_channel(m)
                for m in (infections, deaths, hospital_census, icu_census)]
        shape = mats[0].shape
        if len(shape) != 2 or any(m.shape != shape for m in mats):
            raise ValueError("channel matrices must share one 2-d shape")
        self.infections, self.deaths = mats[0], mats[1]
        self.hospital_census, self.icu_census = mats[2], mats[3]

    @property
    def n_particles(self) -> int:
        return int(self.infections.shape[0])

    @property
    def n_days(self) -> int:
        return int(self.infections.shape[1])

    @property
    def end_day(self) -> int:
        return self.start_day + self.n_days

    def channel_matrix(self, channel: str) -> np.ndarray:
        """The named channel's ``(n_particles, n_days)`` matrix (no copy)."""
        from ..data.sources import CASES, DEATHS, HOSPITAL_CENSUS, ICU_CENSUS
        mapping = {CASES: self.infections, DEATHS: self.deaths,
                   HOSPITAL_CENSUS: self.hospital_census,
                   ICU_CENSUS: self.icu_census}
        if channel not in mapping:
            raise KeyError(f"unknown channel {channel!r}")
        return mapping[channel]

    def window(self, start_day: int, end_day: int) -> "BatchTrajectory":
        """Slice all members to days ``[start_day, end_day)``."""
        if start_day < self.start_day or end_day > self.end_day \
                or end_day < start_day:
            raise ValueError(
                f"window [{start_day}, {end_day}) not within "
                f"[{self.start_day}, {self.end_day})")
        lo, hi = start_day - self.start_day, end_day - self.start_day
        return BatchTrajectory(start_day, self.infections[:, lo:hi],
                               self.deaths[:, lo:hi],
                               self.hospital_census[:, lo:hi],
                               self.icu_census[:, lo:hi])

    def _channels(self) -> tuple[np.ndarray, ...]:
        return (self.infections, self.deaths, self.hospital_census,
                self.icu_census)

    def take(self, index: np.ndarray | Sequence[int]) -> "BatchTrajectory":
        """The members at ``index``, in that order (copies)."""
        idx = np.asarray(index, dtype=np.int64)
        return BatchTrajectory(self.start_day,
                               *(m[idx] for m in self._channels()))

    @staticmethod
    def concatenate(batches: "Sequence[BatchTrajectory]"
                    ) -> "BatchTrajectory":
        """Stack batches over one day range member-wise (copies)."""
        if len({(b.start_day, b.n_days) for b in batches}) != 1:
            raise ValueError("batches must share one day range")
        return BatchTrajectory(batches[0].start_day, *(
            np.concatenate(mats) for mats in
            zip(*(b._channels() for b in batches))))

    def extended_by(self, other: "BatchTrajectory") -> "BatchTrajectory":
        """Row ``i`` of ``other`` appended to row ``i`` of ``self``."""
        if other.start_day != self.end_day:
            raise ValueError(f"continuation starts at day {other.start_day}, "
                             f"expected {self.end_day}")
        return BatchTrajectory(self.start_day, *(
            np.concatenate([a, b], axis=1)
            for a, b in zip(self._channels(), other._channels())))


class BatchedBinomialLeapEngine:
    """Chain-binomial SEIR engine for a whole ensemble at once.

    Parameters
    ----------
    params:
        Shared *structural* disease parameterisation (everything except the
        transmission rate must be common to the batch; members with
        different structure belong in different batches).
    seeds:
        Ordered per-member seed vector; together with ``params``/``thetas``
        it keys the shared batch RNG stream (see the module docstring).
    thetas:
        Optional per-member transmission rates; defaults to
        ``params.transmission_rate`` for every member.
    steps_per_day:
        Substeps per simulated day (leap accuracy knob; 4 by default).
    start_day:
        Day index at which the batch clock begins.
    rng:
        The stream every member draws from; defaults to
        :func:`batch_generator_for` over ``seeds``.  The ground truth passes
        the scalar :func:`~repro.seir.seeding.generator_for` stream of its
        one member.
    """

    name = "binomial_leap_batched"

    def __init__(self, params: DiseaseParameters,
                 seeds: Sequence[int] | np.ndarray, *,
                 thetas: Sequence[float] | np.ndarray | None = None,
                 steps_per_day: int = 4,
                 start_day: int = 0,
                 rng: np.random.Generator | None = None) -> None:
        if steps_per_day < 1:
            raise ValueError("steps_per_day must be >= 1")
        self.params = params
        self.seeds = np.array(seeds, dtype=np.int64)
        if self.seeds.ndim != 1 or self.seeds.size < 1:
            raise ValueError("seeds must be a non-empty 1-d vector")
        n = self.seeds.size
        self.steps_per_day = int(steps_per_day)
        self._set_thetas(thetas, n)
        self._prepare_tables()
        self._rng = rng if rng is not None else batch_generator_for(self.seeds)

        self._day = int(start_day)
        self._counts = np.zeros((n, N_COMPARTMENTS), dtype=np.int64)
        self._counts[:, _S] = params.population - params.initial_exposed
        self._counts[:, _E] = params.initial_exposed
        self._cum_infections = np.zeros(n, dtype=np.int64)
        self._cum_deaths = np.zeros(n, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def _set_thetas(self, thetas: Sequence[float] | np.ndarray | None,
                    n: int) -> None:
        if thetas is None:
            self._thetas = np.full(n, float(self.params.transmission_rate))
            return
        values = np.array(thetas, dtype=np.float64)
        if values.shape != (n,):
            raise ValueError("thetas must match the seed vector length")
        if not np.all(np.isfinite(values)):
            raise ValueError("thetas must be finite")
        self._thetas = values

    def _prepare_tables(self) -> None:
        table = compiled_transitions_for(self.params)
        self._table = table
        dt = 1.0 / self.steps_per_day
        self._p_exit = -np.expm1(-table.total_hazards * dt)
        self._src_list = [int(s) for s in table.sources]

    # ------------------------------------------------------------------ #
    # State access
    # ------------------------------------------------------------------ #
    @property
    def n_particles(self) -> int:
        return int(self.seeds.size)

    @property
    def day(self) -> int:
        """Current simulation day (start of the next unsimulated day)."""
        return self._day

    @property
    def counts(self) -> np.ndarray:
        """Copy of the ``(n_particles, n_compartments)`` occupancy matrix."""
        return self._counts.copy()

    @property
    def thetas(self) -> np.ndarray:
        """Copy of the per-member transmission rates."""
        return self._thetas.copy()

    @thetas.setter
    def thetas(self, thetas: Sequence[float] | np.ndarray) -> None:
        """Per-member transmission rates for the days simulated from now on
        (one finite value per member)."""
        self._set_thetas(thetas, self.n_particles)

    @property
    def cumulative_infections(self) -> np.ndarray:
        return self._cum_infections.copy()

    @property
    def cumulative_deaths(self) -> np.ndarray:
        return self._cum_deaths.copy()

    # ------------------------------------------------------------------ #
    # Dynamics
    # ------------------------------------------------------------------ #
    def _substep(self, thetas: np.ndarray, dt: float
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Advance one substep; return per-member (new_infections, new_deaths)."""
        counts = self._counts
        table = self._table
        rng = self._rng

        lam = thetas * (counts @ table.infection_weights) / self.params.population
        # A non-positive force of infection means no new exposures — the
        # scalar oracle's `if lam > 0` guard, vectorised as a clamp.
        p_inf = -np.expm1(-np.maximum(lam, 0.0) * dt)
        new_e = rng.binomial(counts[:, _S], p_inf)

        # One draw for the total exits of every (member, transient source).
        n_exit = rng.binomial(counts[:, table.sources], self._p_exit)

        delta = np.zeros_like(counts)
        delta[:, _S] -= new_e
        delta[:, _E] += new_e

        new_deaths = np.zeros(self.n_particles, dtype=np.int64)
        for i, src in enumerate(self._src_list):
            k = n_exit[:, i]
            if not k.any():
                continue
            dests = table.dest_indices[i]
            death_mask = table.dest_is_death[i]
            delta[:, src] -= k
            if len(dests) == 1:
                delta[:, dests[0]] += k
                if death_mask[0]:
                    new_deaths += k
            elif len(dests) == 2:
                # Two-way categorical == one complementary binomial.
                first = rng.binomial(k, table.dest_probs[i][0])
                delta[:, dests[0]] += first
                delta[:, dests[1]] += k - first
                if death_mask[0]:
                    new_deaths += first
                if death_mask[1]:
                    new_deaths += k - first
            else:
                allocated = rng.multinomial(k, table.dest_probs[i])
                delta[:, dests] += allocated
                if death_mask.any():
                    new_deaths += allocated[:, death_mask].sum(axis=1)

        counts += delta
        return new_e, new_deaths

    def step_day(self) -> tuple[np.ndarray, np.ndarray]:
        """Simulate one day; return per-member (new_infections, new_deaths)."""
        dt = 1.0 / self.steps_per_day
        day_inf = np.zeros(self.n_particles, dtype=np.int64)
        day_dead = np.zeros(self.n_particles, dtype=np.int64)
        for _ in range(self.steps_per_day):
            inf, dead = self._substep(self._thetas, dt)
            day_inf += inf
            day_dead += dead
        self._day += 1
        self._cum_infections += day_inf
        self._cum_deaths += day_dead
        return day_inf, day_dead

    def run_until(self, end_day: int) -> BatchTrajectory:
        """Simulate days ``[current_day, end_day)``; return stacked outputs."""
        if end_day < self._day:
            raise ValueError(f"end_day {end_day} is before current day {self._day}")
        start = self._day
        n, n_days = self.n_particles, end_day - start
        infections, deaths, hosp, icu = (
            np.zeros((n, n_days), dtype=_CHANNEL_DTYPE) for _ in range(4))
        for d in range(n_days):
            day_inf, day_dead = self.step_day()
            infections[:, d] = day_inf
            deaths[:, d] = day_dead
            hosp[:, d] = self._counts[:, _HOSP_COLS].sum(axis=1)
            icu[:, d] = self._counts[:, _ICU_COLS].sum(axis=1)
        return BatchTrajectory(start, infections, deaths, hosp, icu)

    # ------------------------------------------------------------------ #
    # Restart from columnar state
    # ------------------------------------------------------------------ #
    @classmethod
    def from_particle_snapshots(cls, state: StackedLeapState,
                                params: DiseaseParameters, *,
                                seeds: Sequence[int] | np.ndarray,
                                thetas: Sequence[float] | np.ndarray
                                | None = None,
                                ) -> "BatchedBinomialLeapEngine":
        """Restart a batch from the stacked per-particle rows of ``state``.

        ``seeds`` is the *new* seed vector (one per row, in batch order):
        the restart always begins a fresh batch stream keyed by it.
        """
        if state.steps_per_day < 1:
            raise ValueError("stacked steps_per_day must be >= 1")
        seeds_arr = np.array(seeds, dtype=np.int64)
        if seeds_arr.shape != (state.n_particles,):
            raise ValueError("seeds must provide one entry per snapshot")
        engine = cls.__new__(cls)
        engine.params = params
        engine.steps_per_day = state.steps_per_day
        engine.seeds = seeds_arr
        engine._set_thetas(thetas, state.n_particles)
        engine._prepare_tables()
        engine._rng = batch_generator_for(seeds_arr)
        engine._day = state.day
        engine._counts = state.counts.astype(np.int64, copy=True)
        engine._cum_infections = state.cum_infections.astype(np.int64,
                                                             copy=True)
        engine._cum_deaths = state.cum_deaths.astype(np.int64, copy=True)
        return engine
