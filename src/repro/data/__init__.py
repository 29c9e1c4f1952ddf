"""Data substrate: time series, schedules, observation streams, synthesis."""

from .loaders import (load_series_csv, load_wide_csv,
                      observation_set_from_csv)
from .schedule import FIG2_RHO_SCHEDULE, FIG2_THETA_SCHEDULE, PiecewiseConstant
from .series import TimeSeries, align, concat
from .sources import (CASES, DEATHS, HOSPITAL_CENSUS, ICU_CENSUS,
                      ObservationSet, ObservationSource)
from .synthetic import binomial_thin, mean_thin
from .validation import (ObservationDefect, ObservationValidationError,
                         find_defects, find_row_defects, find_series_defects,
                         validate_observations)

__all__ = [
    "TimeSeries", "align", "concat",
    "PiecewiseConstant", "FIG2_THETA_SCHEDULE", "FIG2_RHO_SCHEDULE",
    "ObservationSource", "ObservationSet",
    "CASES", "DEATHS", "HOSPITAL_CENSUS", "ICU_CENSUS",
    "binomial_thin", "mean_thin",
    "load_series_csv", "load_wide_csv", "observation_set_from_csv",
    "ObservationDefect", "ObservationValidationError",
    "find_defects", "find_series_defects", "find_row_defects",
    "validate_observations",
]
