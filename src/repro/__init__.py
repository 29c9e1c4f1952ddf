"""repro — Sequential Monte Carlo UQ for stochastic epidemic models.

A from-scratch reproduction of Fadikar et al., *Towards Improved Uncertainty
Quantification of Stochastic Epidemic Models Using Sequential Monte Carlo*
(IPDPS Workshops 2024, arXiv:2402.15619): a stochastic SEIR simulator with
checkpoint/restart, a binomial reporting-bias observation model, a sequential
importance sampling calibrator over time windows, and an HPC-style parallel
execution layer.

Quickstart::

    from repro import make_fig2_ground_truth, calibrate, CalibrationConfig

    truth = make_fig2_ground_truth()
    result = calibrate(truth.observations(include_deaths=True),
                       CalibrationConfig(n_parameter_draws=200))
    print(result.describe())

Subpackages
-----------
``repro.core``
    The SMC/SIS framework (particles, weights, resampling, priors,
    proposals, likelihoods, bias model, windows, calibrator).
``repro.seir``
    Stochastic SEIR simulator: the batched binomial-leap engine (the one
    engine every calibration, forecast and ground truth runs on),
    checkpointing, parameters.
``repro.hpc``
    Executors, sharded batched dispatch, fault tolerance, stores.
``repro.data``
    Time series, schedules, observation streams, synthetic observations.
``repro.sim``
    Ground-truth factory.
``repro.inference``
    High-level ``calibrate()`` / forecasting API.
``repro.testing``
    Test oracles: the scalar binomial-leap and exact-SSA engines, the
    per-particle weighting reference, the restart and parity oracles.  No production module imports it.
``repro.viz``
    ASCII charts and CSV export of every figure's data.
"""

from .core import (SequentialCalibrator, SMCConfig, paper_first_window_prior,
                   paper_likelihood, paper_observation_model,
                   paper_window_jitter)
from .inference import (CalibrationConfig, CalibrationResult, Forecast,
                        calibrate, forecast_from_posterior,
                        paper_calibration_config)
from .seir import DiseaseParameters, chicago_defaults
from .sim import GroundTruth, make_fig2_ground_truth, make_ground_truth

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "SequentialCalibrator", "SMCConfig",
    "paper_first_window_prior", "paper_window_jitter",
    "paper_observation_model", "paper_likelihood",
    "calibrate", "CalibrationConfig", "paper_calibration_config",
    "CalibrationResult", "Forecast", "forecast_from_posterior",
    "DiseaseParameters", "chicago_defaults",
    "GroundTruth", "make_ground_truth", "make_fig2_ground_truth",
]
