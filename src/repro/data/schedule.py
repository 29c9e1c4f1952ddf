"""Piecewise-constant parameter schedules.

The paper's ground truth varies the transmission rate and the reporting
probability at discrete *horizons* (section V-A):

    theta = 0.30 on days 0-33, 0.27 on 34-47, 0.25 on 48-61, 0.40 from 62 on
    rho   = 0.60 on days 0-33, 0.70 on 34-47, 0.85 on 48-61, 0.80 from 62 on

:class:`PiecewiseConstant` encodes exactly that: a right-open step function
over integer days.  It is used by the simulator (time-varying transmission)
and by the synthetic-observation generator (time-varying reporting bias).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PiecewiseConstant", "FIG2_THETA_SCHEDULE", "FIG2_RHO_SCHEDULE"]


@dataclass(frozen=True)
class PiecewiseConstant:
    """Right-open step function ``f(day)`` over integer days.

    Parameters
    ----------
    breakpoints:
        Strictly increasing day indices at which the value *changes*.  The
        first segment starts at ``-inf`` conceptually; a schedule with
        breakpoints ``(34, 48, 62)`` and values ``(a, b, c, d)`` evaluates to
        ``a`` for day < 34, ``b`` for 34 <= day < 48, ``c`` for 48 <= day < 62
        and ``d`` for day >= 62.
    values:
        Segment values; exactly ``len(breakpoints) + 1`` of them.
    """

    breakpoints: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        bps = tuple(int(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        if len(vals) != len(bps) + 1:
            raise ValueError(
                f"need len(values) == len(breakpoints)+1, "
                f"got {len(vals)} values for {len(bps)} breakpoints"
            )
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, value: float) -> "PiecewiseConstant":
        """A schedule that never changes."""
        return cls(breakpoints=(), values=(float(value),))

    def __call__(self, day) -> np.ndarray | float:
        """Evaluate at an integer day or an array of days."""
        day_arr = np.asarray(day)
        idx = np.searchsorted(np.asarray(self.breakpoints), day_arr, side="right")
        out = np.asarray(self.values)[idx]
        if np.isscalar(day) or day_arr.ndim == 0:
            return float(out)
        return out


# --------------------------------------------------------------------------- #
# The exact ground-truth schedules of section V-A / Figure 2.
# --------------------------------------------------------------------------- #
FIG2_THETA_SCHEDULE = PiecewiseConstant(breakpoints=(34, 48, 62),
                                        values=(0.30, 0.27, 0.25, 0.40))
"""Transmission-rate schedule used to simulate the Figure 2 ground truth."""

FIG2_RHO_SCHEDULE = PiecewiseConstant(breakpoints=(34, 48, 62),
                                      values=(0.60, 0.70, 0.85, 0.80))
"""Reporting-probability schedule used to thin the Figure 2 ground truth."""
