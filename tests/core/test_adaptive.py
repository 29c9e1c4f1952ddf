"""Unit tests for the adaptive SMC extensions (paper section VI mitigations)."""

import numpy as np
import pytest

from repro.core import (effective_sample_size, normalize_log_weights,
                        temper_and_resample)


def _schedule(ll, floor=0.5, **kw):
    """One bridge over ``ll`` whose posterior keeps the ensemble size."""
    ll = np.asarray(ll, dtype=np.float64)
    rng = np.random.Generator(np.random.PCG64(0))
    return temper_and_resample(ll, max(1, ll.size), rng,
                               ess_floor_fraction=floor, **kw)


def _fig5_like_loglik():
    """1,250 members whose plain ESS fraction is below 1%, like the fig5
    windows (0.2-0.6%)."""
    rng = np.random.Generator(np.random.PCG64(5))
    return -rng.gamma(2.0, 300.0, size=1250)


class TestTemperingSchedule:
    def test_flat_likelihood_single_stage(self):
        assert _schedule(np.full(100, -3.0)).schedule == (1.0,)

    def test_mildly_peaked_single_stage(self):
        rng = np.random.Generator(np.random.PCG64(1))
        ll = rng.normal(-10, 0.1, size=200)
        assert _schedule(ll).schedule == (1.0,)

    def test_sharp_likelihood_multiple_stages(self):
        ll = np.full(200, -1000.0)
        ll[:3] = 0.0  # three dominant particles
        out = _schedule(ll, floor=0.5)
        assert out.n_stages > 1
        assert out.schedule[-1] == 1.0

    def test_schedule_strictly_increasing(self):
        rng = np.random.Generator(np.random.PCG64(2))
        ll = -0.5 * rng.exponential(50, size=300)
        schedule = _schedule(ll).schedule
        assert all(b2 > b1 for b1, b2 in zip(schedule, schedule[1:]))
        assert schedule[-1] == 1.0

    def test_each_stage_respects_ess_floor(self):
        rng = np.random.Generator(np.random.PCG64(3))
        ll = -0.5 * rng.exponential(80, size=400)
        floor = 0.5
        out = _schedule(ll, floor=floor)
        assert out.n_stages > 1
        assert not out.truncated
        assert all(e >= floor * ll.size for e in out.stage_ess)

    def test_validation(self):
        with pytest.raises(ValueError):
            _schedule(np.zeros(5), floor=0.0)
        with pytest.raises(ValueError):
            _schedule(np.zeros(5), floor=1.0)
        with pytest.raises(ValueError):
            _schedule(np.array([]))

    def test_max_stages_exhaustion_still_terminates_at_one(self):
        """A likelihood that needs more stages than the cap allows must
        force the final jump to 1.0 (the only stage allowed to violate the
        floor) and flag the bridge truncated, instead of looping on."""
        ll = _fig5_like_loglik()
        floor = 0.5
        assert _schedule(ll, floor=floor).n_stages > 3
        out = _schedule(ll, floor=floor, max_stages=3)
        assert out.truncated
        assert out.n_stages == 3
        assert out.schedule[-1] == 1.0
        assert all(b2 > b1 for b1, b2 in zip(out.schedule, out.schedule[1:]))
        assert all(e >= floor * ll.size for e in out.stage_ess[:-1])
        assert out.stage_ess[-1] < floor * ll.size
        assert out.indices.shape == (ll.size,)

    def test_all_equal_loglik_is_single_stage(self):
        """Equal log-likelihoods mean uniform incremental weights at every
        exponent — one stage, however extreme the common value."""
        for value in (0.0, -3.0, -1e8, -1e308):
            assert _schedule(np.full(64, value)).schedule == (1.0,)

    def test_neg_inf_entries_tolerated(self):
        """Particles with zero likelihood (log-lik -inf) must not poison the
        bisection with NaNs; the survivors carry the schedule."""
        ll = np.zeros(100)
        ll[:30] = -np.inf  # 30% of the cloud missed the data entirely
        out = _schedule(ll, floor=0.5)
        assert out.schedule == (1.0,)  # 70 equally weighted survivors >= floor
        assert np.all(out.indices >= 30)

        ll = np.concatenate([np.full(50, -np.inf),
                             -0.5 * np.linspace(0, 40, 150) ** 2])
        schedule = _schedule(ll, floor=0.6).schedule
        assert np.all(np.isfinite(schedule))
        assert schedule[-1] == 1.0
        assert all(b2 > b1 for b1, b2 in zip(schedule, schedule[1:]))

    def test_all_neg_inf_raises_cleanly(self):
        """A cloud with zero total weight is a hard failure, not a NaN."""
        with pytest.raises(ValueError, match="zero weight"):
            _schedule(np.full(10, -np.inf))


class TestScheduleOnResampledPopulation:
    """Each exponent is picked on the population the previous stage
    resampled, so a bridge over a fig5-like peaked likelihood needs a
    handful of stages, not the stage cap."""

    def test_peaked_loglik_finishes_well_below_the_cap(self):
        ll = _fig5_like_loglik()
        assert effective_sample_size(normalize_log_weights(ll)) < 0.01 * ll.size
        floor, max_stages = 0.5, 64
        out = temper_and_resample(ll, 625, np.random.Generator(
            np.random.PCG64(7)), ess_floor_fraction=floor,
            max_stages=max_stages)
        assert out.n_stages < max_stages
        assert all(e >= floor * ll.size for e in out.stage_ess)
        assert not out.truncated
        assert out.schedule[-1] == 1.0
        assert out.indices.shape == (625,)

    def test_later_stages_take_larger_steps(self):
        """After a resample the population is tighter, so the next step can
        be longer; a schedule picked on the full ensemble takes equal
        steps."""
        steps = np.diff((0.0,) + _schedule(_fig5_like_loglik()).schedule)
        assert steps[1] > 1.5 * steps[0]


class TestTemperAndResample:
    def test_indices_shape_and_range(self, rng):
        ll = np.linspace(-40, 0, 300)
        out = temper_and_resample(ll, 150, rng)
        assert out.indices.shape == (150,)
        assert out.indices.min() >= 0
        assert out.indices.max() < 300

    def test_concentrates_on_high_likelihood(self, rng):
        ll = np.full(200, -500.0)
        ll[190:] = 0.0
        out = temper_and_resample(ll, 100, rng)
        assert np.all(out.indices >= 190)

    def test_flat_case_reduces_to_plain_resampling(self, rng):
        ll = np.zeros(50)
        out = temper_and_resample(ll, 50, rng)
        assert out.n_stages == 1
        # uniform weights: systematic resampling yields a permutation-ish set
        assert len(np.unique(out.indices)) == 50

    def test_stage_ess_recorded(self, rng):
        ll = np.full(200, -900.0)
        ll[:5] = 0.0
        out = temper_and_resample(ll, 100, rng)
        assert len(out.stage_ess) == out.n_stages
        assert all(e >= 1.0 for e in out.stage_ess)

    def test_single_stage_schedule_equals_plain_resampling(self):
        """With a flat enough likelihood the schedule is the single stage
        ``[1.0]`` and the bridge must reduce *exactly* to one plain
        resampling pass — same resampler, same draws, same indices."""
        from repro.core import get_resampler
        ll = np.linspace(-0.5, 0.0, 120)  # mild tilt: one stage suffices
        for name in ("multinomial", "systematic"):
            r1 = np.random.Generator(np.random.PCG64(77))
            r2 = np.random.Generator(np.random.PCG64(77))
            out = temper_and_resample(ll, 80, r1, resampler=name)
            assert out.schedule == (1.0,)
            plain = get_resampler(name)(normalize_log_weights(ll), 80, r2)
            assert np.array_equal(out.indices, plain)

    def test_forced_progress_path_composes_with_changed_n_out(self, rng):
        """A likelihood so pathological that every bisection collapses to
        the current exponent exercises the forced ``beta + 1e-4`` progress
        guarantee; the bridge must still finish at 1.0 and deliver exactly
        ``n_out`` valid indices (intermediate stages run at full ensemble
        size, only the final stage shrinks to the requested posterior)."""
        ll = np.full(200, -1e9)
        ll[0] = 0.0  # one totally dominant particle
        out = temper_and_resample(ll, 80, rng, ess_floor_fraction=0.9)
        assert out.indices.shape == (80,)
        assert np.all(out.indices == 0)  # only the dominant ancestor survives
        assert out.schedule[-1] == 1.0
        assert out.n_stages > 1  # the forced-progress stages actually ran
        assert all(b2 > b1 for b1, b2 in zip(out.schedule, out.schedule[1:]))
        # every pre-final stage is a forced minimal step, not a bisection win
        assert all(b <= 1e-4 * (i + 1) + 1e-12
                   for i, b in enumerate(out.schedule[:-1]))
        assert len(out.stage_ess) == out.n_stages

    def test_tempering_beats_plain_resampling_on_ancestors(self, rng):
        """The point of tempering: more surviving ancestors for the same
        peaked likelihood."""
        rng2 = np.random.Generator(np.random.PCG64(9))
        ll = -0.5 * np.linspace(0, 30, 500) ** 2
        plain_w = normalize_log_weights(ll)
        from repro.core import multinomial_resample
        plain = len(np.unique(multinomial_resample(plain_w, 500, rng2)))
        tempered = len(np.unique(
            temper_and_resample(ll, 500, rng, ess_floor_fraction=0.7).indices))
        assert tempered >= plain
