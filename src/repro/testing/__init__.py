"""Reusable test scaffolding: bitwise parity oracles, the scalar
binomial-leap reference engine and its restart oracle, the exact-SSA
engine, and fixtures.  No production module imports this package.

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
]
