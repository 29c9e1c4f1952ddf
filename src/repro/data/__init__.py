"""Data substrate: time series, schedules, observation streams, synthesis
and validation.

There is no CSV loader here: observation files enter through the service's
spool intake (:class:`repro.service.ingest.SpoolIngest`), the one CSV
reader, which reads the layout :func:`repro.viz.write_series_csv` writes.
"""

from .schedule import FIG2_RHO_SCHEDULE, FIG2_THETA_SCHEDULE, PiecewiseConstant
from .series import TimeSeries
from .sources import (CASES, DEATHS, HOSPITAL_CENSUS, ICU_CENSUS, STREAMS,
                      ObservationSet, ObservationSource)
from .synthetic import binomial_thin
from .validation import (ObservationDefect, ObservationValidationError,
                         find_defects, find_row_defects, find_series_defects,
                         validate_observations)

__all__ = [
    "TimeSeries",
    "PiecewiseConstant", "FIG2_THETA_SCHEDULE", "FIG2_RHO_SCHEDULE",
    "ObservationSource", "ObservationSet",
    "CASES", "DEATHS", "HOSPITAL_CENSUS", "ICU_CENSUS", "STREAMS",
    "binomial_thin",
    "ObservationDefect", "ObservationValidationError",
    "find_defects", "find_series_defects", "find_row_defects",
    "validate_observations",
]
