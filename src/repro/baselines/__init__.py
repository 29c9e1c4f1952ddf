"""Baseline calibration methods the sequential scheme is compared against."""

from .mcmc import MCMCResult, random_walk_metropolis

__all__ = ["MCMCResult", "random_walk_metropolis"]
