"""Synthetic ground-truth generation (paper section V-A, Figure 2).

The paper's "empirical" data are produced by its own simulator: one
trajectory run with a piecewise-constant transmission-rate schedule is taken
as the true epidemic; reported cases are obtained by binomially thinning the
true daily infections with a piecewise-constant reporting probability; death
counts are observed without bias.

:func:`make_ground_truth` reproduces that construction for any schedule;
:func:`make_fig2_ground_truth` pins the exact schedules of the paper
(theta = 0.30/0.27/0.25/0.40 and rho = 0.60/0.70/0.85/0.80 with horizons at
days 34, 48, 62).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..data.schedule import (FIG2_RHO_SCHEDULE, FIG2_THETA_SCHEDULE,
                             PiecewiseConstant)
from ..data.series import TimeSeries
from ..data.sources import CASES, DEATHS, ObservationSet, ObservationSource
from ..data.synthetic import binomial_thin
from ..seir.model import StochasticSEIRModel
from ..seir.outputs import Trajectory
from ..seir.parameters import DiseaseParameters, chicago_defaults
from ..seir.seeding import SeedSequenceBank, register_ancillary_purpose

__all__ = ["GroundTruth", "make_ground_truth", "make_fig2_ground_truth"]

_DEFAULT_SEED = 777

# Observation thinning draws from its own registered ancillary purpose so the
# truth trajectory is identical whether or not observations are generated
# (value pinned by regression test; 10 leaves 4..9 free for calibrator-side
# consumers, which allocate upward from 0).
_PURPOSE_TRUTH_THIN = register_ancillary_purpose(
    "groundtruth_thinning", 10, description="truth-observation binomial thinning")


@dataclass(frozen=True)
class GroundTruth:
    """A simulated epidemic with known parameters and biased observations.

    Attributes
    ----------
    params:
        Disease parameters used for the truth run.
    theta_schedule / rho_schedule:
        The known time-varying truth the calibration tries to recover.
    trajectory:
        The full true trajectory (infections, deaths, censuses).
    observed_cases:
        Binomially thinned daily infections — the reported-case stream.
    seed:
        Seed of the truth trajectory.
    """

    params: DiseaseParameters
    theta_schedule: PiecewiseConstant
    rho_schedule: PiecewiseConstant
    trajectory: Trajectory
    observed_cases: TimeSeries
    seed: int

    @property
    def true_cases(self) -> TimeSeries:
        """The unobservable true daily infections."""
        return self.trajectory.series(CASES)

    @property
    def deaths(self) -> TimeSeries:
        return self.trajectory.series(DEATHS)

    def theta_true(self, day: int) -> float:
        return float(self.theta_schedule(day))

    def rho_true(self, day: int) -> float:
        return float(self.rho_schedule(day))

    def observations(self, include_deaths: bool = False) -> ObservationSet:
        """The data streams handed to the calibrator.

        Cases only for the Fig 3/4 experiments; add unbiased deaths for
        Fig 5.
        """
        sources = [ObservationSource(CASES, self.observed_cases,
                                     channel=CASES, biased=True)]
        if include_deaths:
            sources.append(ObservationSource(DEATHS, self.deaths,
                                             channel=DEATHS, biased=False))
        return ObservationSet.of(*sources)

    def truth_point(self, day: int) -> dict[str, float]:
        """The (theta, rho) truth square plotted in Figs 4b/5b."""
        return {"theta": self.theta_true(day), "rho": self.rho_true(day)}


def make_ground_truth(params: DiseaseParameters | None = None,
                      horizon: int = 100,
                      seed: int = _DEFAULT_SEED,
                      theta_schedule: PiecewiseConstant = FIG2_THETA_SCHEDULE,
                      rho_schedule: PiecewiseConstant = FIG2_RHO_SCHEDULE,
                      **engine_options) -> GroundTruth:
    """Simulate a truth epidemic and its biased observation stream."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    base = params if params is not None else chicago_defaults()
    model = StochasticSEIRModel(base, seed, theta_schedule=theta_schedule,
                                **engine_options)
    trajectory = model.run_until(horizon)
    # Thinning uses a stream independent of the simulation stream so the
    # truth trajectory is identical whether or not observations are drawn.
    rng_thin = SeedSequenceBank(seed).ancillary_generator(
        purpose=_PURPOSE_TRUTH_THIN)
    observed = binomial_thin(trajectory.series(CASES), rho_schedule, rng_thin)
    return GroundTruth(params=base, theta_schedule=theta_schedule,
                       rho_schedule=rho_schedule, trajectory=trajectory,
                       observed_cases=observed, seed=seed)


def make_fig2_ground_truth(seed: int = _DEFAULT_SEED, horizon: int = 100,
                           params: DiseaseParameters | None = None,
                           ) -> GroundTruth:
    """The exact Figure 2 construction (paper schedules, 100-day horizon)."""
    return make_ground_truth(params=params, horizon=horizon, seed=seed,
                             theta_schedule=FIG2_THETA_SCHEDULE,
                             rho_schedule=FIG2_RHO_SCHEDULE)
