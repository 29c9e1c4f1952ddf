"""Unit tests for piecewise-constant schedules."""

import numpy as np
import pytest

from repro.data import FIG2_RHO_SCHEDULE, FIG2_THETA_SCHEDULE, PiecewiseConstant


class TestConstruction:
    def test_constant(self):
        s = PiecewiseConstant.constant(0.3)
        assert s(0) == 0.3
        assert s(1000) == 0.3

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="len"):
            PiecewiseConstant(breakpoints=(10,), values=(1.0,))

    def test_non_increasing_breakpoints_raise(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PiecewiseConstant(breakpoints=(10, 10), values=(1.0, 2.0, 3.0))


class TestEvaluation:
    def test_scalar_evaluation_at_boundaries(self):
        s = PiecewiseConstant(breakpoints=(34, 48), values=(1.0, 2.0, 3.0))
        assert s(33) == 1.0
        assert s(34) == 2.0
        assert s(47) == 2.0
        assert s(48) == 3.0

    def test_array_evaluation(self):
        s = PiecewiseConstant(breakpoints=(2,), values=(1.0, 5.0))
        out = s(np.array([0, 1, 2, 3]))
        assert list(out) == [1.0, 1.0, 5.0, 5.0]

    def test_scalar_return_type(self):
        s = PiecewiseConstant.constant(0.5)
        assert isinstance(s(3), float)


class TestPaperSchedules:
    def test_fig2_theta_values(self):
        """Section V-A: 0.30 d0-33, 0.27 d34-47, 0.25 d48-61, 0.40 d62+."""
        assert FIG2_THETA_SCHEDULE(0) == 0.30
        assert FIG2_THETA_SCHEDULE(33) == 0.30
        assert FIG2_THETA_SCHEDULE(34) == 0.27
        assert FIG2_THETA_SCHEDULE(47) == 0.27
        assert FIG2_THETA_SCHEDULE(48) == 0.25
        assert FIG2_THETA_SCHEDULE(61) == 0.25
        assert FIG2_THETA_SCHEDULE(62) == 0.40
        assert FIG2_THETA_SCHEDULE(99) == 0.40

    def test_fig2_rho_values(self):
        """Section V-A: 0.6, 0.7, 0.85, 0.8 on the same horizons."""
        assert FIG2_RHO_SCHEDULE(0) == 0.60
        assert FIG2_RHO_SCHEDULE(34) == 0.70
        assert FIG2_RHO_SCHEDULE(48) == 0.85
        assert FIG2_RHO_SCHEDULE(62) == 0.80
