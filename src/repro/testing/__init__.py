"""Reusable test scaffolding: bitwise parity oracles, the scalar
binomial-leap reference engine and its restart oracle, the exact-SSA
engine, the per-particle weighting reference, and fixtures.  No production
module imports this package.

The scalar oracles keep their one-trajectory-at-a-time logic but speak
the production record: an engine run is a one-row
:class:`~repro.seir.batch_engine.BatchTrajectory`, :func:`restart_oracle`
stacks its rows into one batch, and :func:`loglik_reference` reads a
:class:`~repro.core.particle.ParticleEnsemble`'s segments row by row.

Shipped inside the package (rather than under ``tests/``) so the parity
guarantees of ``docs/scenarios.md`` are assertable by downstream users'
own suites, not just this repository's.
"""

from .gillespie import GillespieEngine
from .leap import BinomialLeapEngine, TrajectoryBuilder
from .oracle import restart_oracle, window_oracle

from .parity import (assert_ensembles_identical, assert_runs_identical,
                     assert_trajectories_identical,
                     assert_window_results_identical, parity_calibrator,
                     parity_config, parity_sweep, parity_truth,
                     statistical_diagnostics)
from .weighting import loglik_reference

__all__ = [
    "assert_trajectories_identical",
    "assert_ensembles_identical",
    "assert_window_results_identical",
    "assert_runs_identical",
    "statistical_diagnostics",
    "parity_truth",
    "parity_config",
    "parity_calibrator",
    "parity_sweep",
    "restart_oracle",
    "window_oracle",
    "GillespieEngine",
    "BinomialLeapEngine",
    "TrajectoryBuilder",
    "loglik_reference",
]
