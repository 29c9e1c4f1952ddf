"""High-level inference API: configure, calibrate, forecast."""

from .api import calibrate, calibrate_scenarios
from .config import CalibrationConfig
from .forecast import Forecast, forecast_from_posterior
from .results import CalibrationResult, ParameterTrack, ScenarioSweepResult

__all__ = [
    "calibrate", "calibrate_scenarios",
    "CalibrationConfig",
    "CalibrationResult", "ParameterTrack", "ScenarioSweepResult",
    "Forecast", "forecast_from_posterior",
]
