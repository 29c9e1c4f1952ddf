"""Unit tests for diagnostics and posterior summaries."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (WindowDiagnostics, compute_diagnostics,
                        hpd_region_mass, joint_density_grid,
                        marginal_histogram, trajectory_ribbon)
from repro.core.weights import normalize_log_weights
from repro.seir import BatchTrajectory


class TestDiagnostics:
    def _diag(self, log_weights):
        lw = np.asarray(log_weights, dtype=float)
        return compute_diagnostics(lw, normalize_log_weights(lw), 3)

    def test_uniform_weights_healthy(self):
        d = self._diag(np.zeros(100))
        assert d.ess == pytest.approx(100.0)
        assert d.ess_fraction == pytest.approx(1.0)

    def test_collapsed_weights_degenerate(self):
        lw = np.full(100, -1000.0)
        lw[0] = 0.0
        d = self._diag(lw)
        assert d.ess == pytest.approx(1.0, rel=1e-6)
        assert d.ess_fraction == pytest.approx(0.01, rel=1e-6)
        assert d.max_weight == pytest.approx(1.0)

    def test_log_evidence_uniform(self):
        """Average weight of exp(-3) everywhere -> log evidence = -3."""
        d = self._diag(np.full(50, -3.0))
        assert d.log_evidence == pytest.approx(-3.0)

    def test_entropy_fraction_bounds(self):
        d = self._diag(np.linspace(-5, 0, 64))
        assert 0.0 < d.entropy_fraction <= 1.0

    def test_single_particle_entropy_fraction_is_one(self):
        """Regression: n=1 is uniform-over-one (the only possible state),
        not a collapsed ensemble — the fraction must read 1.0, not 0.0."""
        d = self._diag(np.array([-2.5]))
        assert d.entropy == 0.0
        assert d.entropy_fraction == 1.0

    def test_log_evidence_reuses_logsumexp(self):
        """log_evidence is logsumexp(lw) - log(n) — including on weight
        vectors whose naive mean-of-exponentials would overflow."""
        from repro.core import logsumexp
        lw = np.array([700.0, 699.0, -10.0])
        d = self._diag(lw)
        assert d.log_evidence == pytest.approx(logsumexp(lw) - np.log(3))
        assert np.isfinite(d.log_evidence)

    def test_round_trip(self):
        d = self._diag(np.zeros(10))
        restored = WindowDiagnostics.from_dict(d.to_dict())
        assert restored == d

    def test_round_trip_with_temper_fields(self):
        lw = np.linspace(-4, 0, 10)
        d = compute_diagnostics(lw, normalize_log_weights(lw), 3,
                                temper_schedule=(0.25, 1.0),
                                temper_stage_ess=(6.0, 5.0))
        assert d.tempered
        assert d.temper_stages == 2
        restored = WindowDiagnostics.from_dict(d.to_dict())
        assert restored == d
        assert restored.temper_schedule == (0.25, 1.0)

    def test_from_dict_tolerates_pre_temper_payloads(self):
        """Back-compat: payloads written before the tempering audit fields
        existed must still round-trip (empty schedule = no tempering)."""
        d = self._diag(np.zeros(10))
        payload = d.to_dict()
        del payload["temper_schedule"], payload["temper_stage_ess"]
        restored = WindowDiagnostics.from_dict(payload)
        assert not restored.tempered
        assert restored.temper_stages == 0

    def test_round_trip_truncated_flag(self):
        """A bridge cut short by its stage cap round-trips its flag; the key
        is written only for tempered windows and defaults to False for
        payloads written before the flag existed."""
        lw = np.linspace(-4, 0, 10)
        d = replace(compute_diagnostics(lw, normalize_log_weights(lw), 3,
                                        temper_schedule=(0.25, 1.0),
                                        temper_stage_ess=(6.0, 1.5)),
                    temper_truncated=True)
        assert WindowDiagnostics.from_dict(d.to_dict()) == d
        payload = d.to_dict()
        del payload["temper_truncated"]
        assert not WindowDiagnostics.from_dict(payload).temper_truncated
        assert "temper_truncated" not in self._diag(np.zeros(10)).to_dict()

    def test_temper_fields_must_align(self):
        lw = np.zeros(4)
        with pytest.raises(ValueError, match="align"):
            compute_diagnostics(lw, normalize_log_weights(lw), 1,
                                temper_schedule=(1.0,), temper_stage_ess=())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_diagnostics(np.zeros(3), np.ones(4) / 4, 1)


def traj(values, start=0):
    """One run's cases as a one-row batch."""
    v = np.asarray([values], dtype=float)
    z = np.zeros_like(v)
    return BatchTrajectory(start, v, z, z, z)


def stack(*trajs):
    return BatchTrajectory.concatenate(trajs)


class TestTrajectoryRibbon:
    def test_quantile_bands_ordered(self):
        trajs = stack(*(traj(np.full(10, float(k))) for k in range(100)))
        rib = trajectory_ribbon(trajs, "cases")
        assert np.all(rib.band(0.05) <= rib.band(0.5))
        assert np.all(rib.band(0.5) <= rib.band(0.95))
        assert rib.n_days == 10

    def test_median_of_constant_ensemble(self):
        trajs = stack(*(traj(np.full(5, 7.0)) for _ in range(10)))
        rib = trajectory_ribbon(trajs, "cases")
        assert np.allclose(rib.median(), 7.0)

    def test_weighted_ribbon_shifts(self):
        trajs = stack(traj(np.zeros(4)), traj(np.full(4, 10.0)))
        w_low = np.array([0.99, 0.01])
        rib = trajectory_ribbon(trajs, "cases", quantiles=(0.5,), weights=w_low)
        assert np.allclose(rib.band(0.5), 0.0)

    def test_coverage_of(self):
        trajs = stack(*(traj(np.full(6, float(k))) for k in range(11)))
        rib = trajectory_ribbon(trajs, "cases")
        inside = np.full(6, 5.0)
        assert rib.coverage_of(inside, 0.05, 0.95) == 1.0
        outside = np.full(6, 50.0)
        assert rib.coverage_of(outside, 0.05, 0.95) == 0.0

    def test_mismatched_day_ranges_rejected(self):
        for other in (traj(np.zeros(4)), traj(np.zeros(3), start=1)):
            with pytest.raises(ValueError, match="one day range"):
                trajectory_ribbon(stack(traj(np.zeros(3)), other), "cases")

    def test_unsorted_quantiles_rejected(self):
        with pytest.raises(ValueError):
            trajectory_ribbon(traj(np.zeros(3)), "cases", quantiles=(0.9, 0.1))

    def test_band_lookup_missing(self):
        rib = trajectory_ribbon(traj(np.zeros(3)), "cases", quantiles=(0.5,))
        with pytest.raises(KeyError):
            rib.band(0.9)


class TestHistogramAndDensity:
    def test_marginal_histogram_integrates_to_one(self, rng):
        x = rng.normal(size=2000)
        edges, dens = marginal_histogram(x, bins=30)
        widths = np.diff(edges)
        assert float((dens * widths).sum()) == pytest.approx(1.0)

    def test_marginal_histogram_support_override(self, rng):
        x = rng.uniform(0.2, 0.4, size=100)
        edges, _ = marginal_histogram(x, support=(0.0, 1.0), bins=10)
        assert edges[0] == 0.0
        assert edges[-1] == 1.0

    def test_joint_density_shape(self, rng):
        x = rng.normal(size=500)
        y = rng.normal(size=500)
        xe, ye, d = joint_density_grid(x, y, bins=20)
        assert d.shape == (20, 20)
        assert xe.shape == (21,)

    def test_joint_density_concentrates_at_mode(self, rng):
        x = rng.normal(0.0, 0.1, size=4000)
        y = rng.normal(0.0, 0.1, size=4000)
        xe, ye, d = joint_density_grid(x, y, bins=21,
                                       x_range=(-1, 1), y_range=(-1, 1))
        assert d[10, 10] == d.max()

    def test_hpd_region_mass_center_small(self, rng):
        x = rng.normal(0.0, 0.1, size=4000)
        y = rng.normal(0.0, 0.1, size=4000)
        _, _, d = joint_density_grid(x, y, bins=21,
                                     x_range=(-1, 1), y_range=(-1, 1))
        center = hpd_region_mass(d, (10, 10))
        corner = hpd_region_mass(d, (0, 0))
        assert center < 0.2
        assert corner == pytest.approx(1.0)

    def test_hpd_region_mass_never_exceeds_one(self):
        # At the lowest occupied level the region is every occupied cell;
        # summed in mask order, those cells can round to
        # 1.0000000000000002 of the whole-grid sum.
        draws = np.random.default_rng(8)
        _, _, posterior = joint_density_grid(
            draws.normal(0.3, 0.05, size=100), draws.beta(4, 1, size=100),
            bins=15, x_range=(0.05, 0.55), y_range=(0.0, 1.0))
        tenths = np.array([[3, 1, 2, 0], [3, 2, 2, 2], [0, 2, 1, 0]]) * 0.1
        for d in (posterior, tenths):
            for level in (d[d > 0].min(), 0.0):
                cell = tuple(int(k) for k in np.argwhere(d == level)[0])
                assert hpd_region_mass(d, cell) == 1.0

    def test_hpd_index_validated(self, rng):
        _, _, d = joint_density_grid(rng.normal(size=50), rng.normal(size=50),
                                     bins=5)
        with pytest.raises(ValueError):
            hpd_region_mass(d, (9, 9))
