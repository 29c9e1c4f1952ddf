"""Unit tests for seed management (common random numbers)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ParticleEnsemble
from repro.inference.forecast import _forecast_seeds
from repro.seir import SeedSequenceBank, generator_for, mix_seed, mix_seeds
from repro.seir.seeding import FORECAST_STREAM

MASK63 = 2**63 - 1
#: Word-count edges of SeedSequence's entropy coercion: 0 still takes one
#: 32-bit word, 2**32 - 1 is the last one-word value, 2**32 the first
#: two-word one; negatives are masked to 63 bits first.
EDGE_VALUES = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, -1, -(2**63), -(2**32))
int64s = st.one_of(st.sampled_from(EDGE_VALUES),
                   st.integers(-(2**63), 2**63 - 1))


def seed_sequence_reference(*entropy: int) -> int:
    """The definition :func:`mix_seed` wraps, spelled out."""
    state = np.random.SeedSequence(
        entropy=[int(c) & MASK63 for c in entropy]).generate_state(
            1, np.uint64)
    return int(state[0]) & MASK63


@st.composite
def component_rows(draw):
    """1-6 components, each a scalar or an (n,) int64 column, n in [0, 8]."""
    n = draw(st.integers(0, 8))
    components = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            components.append(draw(int64s))
        else:
            components.append(np.array(draw(st.lists(
                int64s, min_size=n, max_size=n)), dtype=np.int64))
    return n, components


class TestGeneratorFor:
    def test_deterministic(self):
        a = generator_for(42).integers(0, 1_000_000, size=5)
        b = generator_for(42).integers(0, 1_000_000, size=5)
        assert np.array_equal(a, b)

    def test_distinct_seeds_distinct_streams(self):
        a = generator_for(1).integers(0, 1_000_000, size=5)
        b = generator_for(2).integers(0, 1_000_000, size=5)
        assert not np.array_equal(a, b)


class TestMixSeed:
    def test_deterministic(self):
        assert mix_seed(1, 2, 3) == mix_seed(1, 2, 3)

    def test_order_sensitive(self):
        assert mix_seed(1, 2) != mix_seed(2, 1)

    def test_nonnegative_63bit(self):
        s = mix_seed(2**62, 17)
        assert 0 <= s < 2**63


class TestMixSeeds:
    """The vectorised mixer against SeedSequence, row by row."""

    @settings(max_examples=200, deadline=None)
    @given(component_rows())
    def test_rows_match_seed_sequence(self, case):
        n, components = case
        got = mix_seeds(*components)
        any_column = any(np.ndim(c) for c in components)
        assert got.dtype == np.int64
        assert got.shape == ((n,) if any_column else (1,))
        for i, value in enumerate(got):
            row = [c if np.ndim(c) == 0 else c[i] for c in components]
            assert int(value) == seed_sequence_reference(*row)
            assert int(value) == mix_seed(*row)

    def test_scalar_beyond_int64_is_masked(self):
        assert mix_seeds(2**64 + 5, 3)[0] == mix_seed(2**64 + 5, 3)

    def test_empty_rows(self):
        assert mix_seeds(1, 2, np.arange(0)).shape == (0,)

    def test_needs_a_component(self):
        with pytest.raises(ValueError):
            mix_seeds()

    @pytest.mark.parametrize("base_seed", [0, 7, 20240215, 2**40 + 3])
    def test_window_draw_seeds_match_scalar(self, base_seed):
        bank = SeedSequenceBank(base_seed)
        for window in (0, 1, 5):
            expected = [bank.window_draw_seed(window, i) for i in range(40)]
            assert bank.window_draw_seeds(window, 40).tolist() == expected
        assert bank.window_draw_seeds(2, 0).shape == (0,)

    def test_window_draw_seeds_validation(self):
        with pytest.raises(ValueError):
            SeedSequenceBank(7).window_draw_seeds(-1, 3)
        with pytest.raises(ValueError):
            SeedSequenceBank(7).window_draw_seeds(0, -1)

    def test_forecast_seeds_replicate_major(self):
        seeds = np.array([5, 2**32, 2**62 + 11, 0], dtype=np.int64)
        posterior = ParticleEnsemble.from_columns(
            {"theta": np.full(4, 0.3)}, seeds)
        expected = [mix_seed(9, FORECAST_STREAM, rep, j, int(seed))
                    for rep in range(3) for j, seed in enumerate(seeds)]
        assert _forecast_seeds(posterior, 9, 3).tolist() == expected


class TestSeedSequenceBank:
    def test_common_seeds_reproducible(self):
        a = SeedSequenceBank(7).common_replicate_seeds(10)
        b = SeedSequenceBank(7).common_replicate_seeds(10)
        assert a == b

    def test_common_seeds_distinct(self):
        seeds = SeedSequenceBank(7).common_replicate_seeds(50)
        assert len(set(seeds)) == 50

    def test_prefix_stability(self):
        """Asking for more replicates must not change the earlier ones."""
        short = SeedSequenceBank(7).common_replicate_seeds(5)
        long = SeedSequenceBank(7).common_replicate_seeds(10)
        assert long[:5] == short

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            SeedSequenceBank(7).common_replicate_seeds(0)

    def test_ancillary_streams_independent_of_simulation(self):
        bank = SeedSequenceBank(7)
        seeds = bank.common_replicate_seeds(5)
        anc = bank.ancillary_generator(0).integers(0, 2**62, size=5)
        assert not np.array_equal(np.array(seeds), anc)

    def test_ancillary_purposes_differ(self):
        bank = SeedSequenceBank(7)
        a = bank.ancillary_generator(0).integers(0, 2**62, size=4)
        b = bank.ancillary_generator(1).integers(0, 2**62, size=4)
        assert not np.array_equal(a, b)


class TestWindowedAncillaryStreams:
    """Regression tests for the cross-window RNG stream reuse bug: every
    per-window consumer (jitter, bias thinning, resampling) must get a
    distinct stream per window instead of replaying window 0's draws."""

    PURPOSES = (1, 2, 3)  # bias, resample, jitter

    def test_streams_pairwise_distinct_across_windows(self):
        bank = SeedSequenceBank(7)
        for purpose in self.PURPOSES:
            draws = [tuple(bank.ancillary_generator(purpose, window_index=w)
                           .integers(0, 2**62, size=6))
                     for w in range(6)]
            assert len(set(draws)) == 6

    def test_windowed_stream_differs_from_unwindowed(self):
        bank = SeedSequenceBank(7)
        plain = bank.ancillary_generator(1).integers(0, 2**62, size=6)
        windowed = bank.ancillary_generator(1, window_index=0).integers(
            0, 2**62, size=6)
        assert not np.array_equal(plain, windowed)

    def test_windowed_streams_distinct_across_purposes(self):
        bank = SeedSequenceBank(7)
        a = bank.ancillary_generator(1, window_index=3).integers(0, 2**62, size=6)
        b = bank.ancillary_generator(2, window_index=3).integers(0, 2**62, size=6)
        assert not np.array_equal(a, b)

    def test_windowed_stream_reproducible(self):
        a = SeedSequenceBank(7).ancillary_generator(2, window_index=4)
        b = SeedSequenceBank(7).ancillary_generator(2, window_index=4)
        assert np.array_equal(a.integers(0, 2**62, size=6),
                              b.integers(0, 2**62, size=6))

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match="window_index"):
            SeedSequenceBank(7).ancillary_generator(1, window_index=-1)


class TestShardSimulationGenerators:
    """Per-shard RNG contract of the sharded batched dispatch: a shard's
    batch stream is keyed by its own slice of the seed vector alone."""

    @staticmethod
    def shard(params, seeds):
        from repro.hpc.sharding import ShardTask, run_shard
        task = ShardTask(shard_id=0, params=params,
                         seeds=np.asarray(seeds, dtype=np.int64),
                         thetas=np.full(len(seeds), 0.3), end_day=12,
                         start_day=0, return_state=False)
        return run_shard(task).batch.infections

    def test_single_full_shard_matches_batch_stream(self, small_params):
        from repro.seir import BatchedBinomialLeapEngine
        seeds = [11, 22, 33, 44]
        whole = BatchedBinomialLeapEngine(
            small_params, seeds, thetas=np.full(4, 0.3)).run_until(12)
        assert np.array_equal(self.shard(small_params, seeds),
                              whole.infections)

    def test_shard_stream_is_pure_function_of_slice(self, small_params):
        """Same slice contents -> same stream, wherever it is rebuilt."""
        from repro.seir import BatchedBinomialLeapEngine
        seeds = np.array([11, 22, 33, 44, 55])
        for lo, hi in ((0, 2), (2, 5)):
            alone = BatchedBinomialLeapEngine(
                small_params, seeds[lo:hi].tolist(),
                thetas=np.full(hi - lo, 0.3)).run_until(12)
            assert np.array_equal(self.shard(small_params, seeds[lo:hi]),
                                  alone.infections)

    def test_different_layouts_rekey_streams(self, small_params):
        seeds = [11, 22, 33, 44]
        whole = self.shard(small_params, seeds)
        first_half = self.shard(small_params, seeds[:2])
        assert not np.array_equal(whole[:2], first_half)


class TestStreamDomainRegistry:
    """The two stream domains -- the :data:`STREAM_TAGS` bank table and the
    :data:`ANCILLARY_PURPOSES` table -- and their import-time uniqueness
    check.

    The pinned values are load-bearing: every stream a tag keys is a pure
    function of ``(base_seed, tag, components)``, so renumbering a tag
    silently re-keys that stream and breaks bit-reproducibility of every
    committed benchmark and regression baseline.  A changed, missing or
    extra entry here means someone re-keyed a seed stream.
    """

    def test_bank_tags_pinned(self):
        """Every bank tag as shipped, the retired tags 4 and 5 included."""
        from repro.seir.seeding import FORECAST_STREAM, STREAM_TAGS
        assert dict(STREAM_TAGS) == {
            "simulation": 0, "ancillary": 1, "batch": 2, "window_draw": 3,
            "window_restart": 4, "scenario": 5, "forecast": 9100}
        assert FORECAST_STREAM == 9100
        with pytest.raises(TypeError):
            STREAM_TAGS["new_stream"] = 6  # type: ignore[index]

    def test_ancillary_tags_pinned(self):
        from repro.seir.seeding import (ANCILLARY_PURPOSES,
                                        PURPOSE_CHAOS_FAULTS,
                                        PURPOSE_GROUNDTRUTH_THINNING,
                                        PURPOSE_SERVICE_CHAOS,
                                        PURPOSE_SMC_BIAS, PURPOSE_SMC_JITTER,
                                        PURPOSE_SMC_PRIOR,
                                        PURPOSE_SMC_RESAMPLE)
        assert dict(ANCILLARY_PURPOSES) == {
            "smc_prior": 0, "smc_bias": 1, "smc_resample": 2,
            "smc_jitter": 3, "groundtruth_thinning": 10, "chaos_faults": 40,
            "service_chaos": 41}
        assert (PURPOSE_SMC_PRIOR, PURPOSE_SMC_BIAS, PURPOSE_SMC_RESAMPLE,
                PURPOSE_SMC_JITTER, PURPOSE_GROUNDTRUTH_THINNING,
                PURPOSE_CHAOS_FAULTS, PURPOSE_SERVICE_CHAOS) == (
                    0, 1, 2, 3, 10, 40, 41)
        with pytest.raises(TypeError):
            ANCILLARY_PURPOSES["new_purpose"] = 42  # type: ignore[index]

    def test_tag_collision_raises(self):
        from repro.seir.seeding import (ANCILLARY_PURPOSES, STREAM_TAGS,
                                        check_unique_tags)
        check_unique_tags(STREAM_TAGS)
        check_unique_tags(ANCILLARY_PURPOSES)
        with pytest.raises(ValueError, match="alias"):
            check_unique_tags({**STREAM_TAGS, "not_the_simulation_stream": 0})

    def test_domains_are_separate_namespaces(self):
        # ancillary purpose 0 (smc_prior) coexists with bank tag 0
        # (simulation): uniqueness is checked per table.
        from repro.seir.seeding import ANCILLARY_PURPOSES, STREAM_TAGS
        assert STREAM_TAGS["simulation"] == 0
        assert ANCILLARY_PURPOSES["smc_prior"] == 0


class TestRngStateHelpers:
    """The serialisation helpers live in seeding (the one sanctioned RNG
    construction site)."""

    def test_roundtrip(self):
        from repro.seir.seeding import (rng_from_jsonable,
                                        rng_state_to_jsonable)
        rng = generator_for(99)
        rng.integers(0, 100, size=7)
        clone = rng_from_jsonable(rng_state_to_jsonable(rng))
        assert np.array_equal(rng.integers(0, 2**31, size=16),
                              clone.integers(0, 2**31, size=16))

