"""Terminal visualisation and figure-data export."""

from .ascii import (density_grid_plot, line_plot, multi_line_plot,
                    ribbon_plot)
from .export import (write_density_csv, write_json, write_ribbon_csv,
                     write_series_csv)

__all__ = [
    "line_plot", "multi_line_plot", "ribbon_plot",
    "density_grid_plot",
    "write_series_csv", "write_ribbon_csv", "write_density_csv", "write_json",
]
