"""Simulation orchestration: ground-truth epidemics."""

from .groundtruth import GroundTruth, make_fig2_ground_truth, make_ground_truth

__all__ = [
    "GroundTruth", "make_ground_truth", "make_fig2_ground_truth",
]
