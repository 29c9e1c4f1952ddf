"""Baseline calibration methods the sequential scheme is compared against."""

from .mcmc import MCMCResult, random_walk_metropolis
from .single_shot import SingleShotResult, single_shot_importance_sampling

__all__ = [
    "SingleShotResult", "single_shot_importance_sampling",
    "MCMCResult", "random_walk_metropolis",
]
