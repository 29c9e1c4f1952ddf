"""Unit tests for seed management (common random numbers)."""

import numpy as np
import pytest

from repro.seir import SeedSequenceBank, generator_for, mix_seed


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

    def test_window_restart_seed_varies_with_particle(self):
        bank = SeedSequenceBank(7)
        s1 = bank.window_restart_seed(100, 1, 0)
        s2 = bank.window_restart_seed(100, 1, 1)
        s3 = bank.window_restart_seed(100, 2, 0)
        assert len({s1, s2, s3}) == 3

    def test_window_restart_seed_reproducible(self):
        assert (SeedSequenceBank(7).window_restart_seed(5, 1, 2)
                == SeedSequenceBank(7).window_restart_seed(5, 1, 2))

    def test_restart_and_draw_seed_domains_disjoint(self):
        """Regression: ``window_restart_seed(original_seed=3, w, p)`` used
        to reach the exact ``mix_seed`` tuple of ``window_draw_seed(w, p)``
        (3 is the draw stream's tag), aliasing the two streams.  The
        per-method tag in the reserved position after the base seed must
        keep the domains disjoint for *every* original_seed — including the
        stream-tag values themselves."""
        bank = SeedSequenceBank(7)
        draw_seeds = {bank.window_draw_seed(w, p)
                      for w in range(4) for p in range(8)}
        restart_seeds = {bank.window_restart_seed(orig, w, p)
                         for orig in (0, 1, 2, 3, 4, 5, 7)
                         for w in range(4) for p in range(8)}
        assert not draw_seeds & restart_seeds
        # the exact aliasing pair from the bug report
        assert bank.window_restart_seed(3, 1, 2) != bank.window_draw_seed(1, 2)

    def test_restart_seed_varies_with_original_seed(self):
        bank = SeedSequenceBank(7)
        assert (bank.window_restart_seed(1, 1, 0)
                != bank.window_restart_seed(2, 1, 0))


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
    """Per-shard RNG contract of the sharded batched dispatch."""

    def test_single_full_shard_matches_batch_stream(self):
        bank = SeedSequenceBank(3)
        seeds = [11, 22, 33, 44]
        whole = bank.batch_simulation_generator(seeds)
        [sharded] = bank.shard_simulation_generators(seeds, [(0, 4)])
        assert np.array_equal(whole.integers(0, 2**31, size=8),
                              sharded.integers(0, 2**31, size=8))

    def test_shard_stream_is_pure_function_of_slice(self):
        """Same slice contents -> same stream, wherever it is rebuilt."""
        from repro.seir.seeding import batch_generator_for
        bank = SeedSequenceBank(3)
        seeds = [11, 22, 33, 44, 55]
        a, b = bank.shard_simulation_generators(seeds, [(0, 2), (2, 5)])
        assert np.array_equal(
            a.integers(0, 2**31, size=6),
            batch_generator_for([11, 22]).integers(0, 2**31, size=6))
        assert np.array_equal(
            b.integers(0, 2**31, size=6),
            batch_generator_for([33, 44, 55]).integers(0, 2**31, size=6))

    def test_different_layouts_rekey_streams(self):
        bank = SeedSequenceBank(3)
        seeds = [11, 22, 33, 44]
        [whole] = bank.shard_simulation_generators(seeds, [(0, 4)])
        first_half, _ = bank.shard_simulation_generators(seeds,
                                                         [(0, 2), (2, 4)])
        assert not np.array_equal(whole.integers(0, 2**31, size=6),
                                  first_half.integers(0, 2**31, size=6))


class TestStreamDomainRegistry:
    """Import-time uniqueness guard + pinned tag values.

    The pinned values are load-bearing: every stream a tag keys is a pure
    function of ``(base_seed, tag, components)``, so renumbering a tag
    silently re-keys that stream and breaks bit-reproducibility of every
    committed benchmark and regression baseline.
    """

    # (name, tag) per domain as shipped; a changed or missing entry here
    # means someone re-keyed a seed stream.
    PINNED_BANK_TAGS = {
        "simulation": 0, "ancillary": 1, "batch": 2,
        "window_draw": 3, "window_restart": 4, "scenario": 5,
        "forecast": 9100,
    }
    PINNED_ANCILLARY_TAGS = {
        "smc_prior": 0, "smc_bias": 1, "smc_resample": 2, "smc_jitter": 3,
        "groundtruth_thinning": 10, "mcmc_chain": 20, "mcmc_bias": 21,
        "chaos_faults": 40,
    }

    def test_bank_tags_pinned(self):
        # Importing the consumers registers their tags.
        import repro.core.smc  # noqa: F401
        import repro.inference.forecast  # noqa: F401
        from repro.seir.seeding import STREAM_DOMAINS
        tags = STREAM_DOMAINS.tags("bank")
        for name, tag in self.PINNED_BANK_TAGS.items():
            assert tags.get(name) == tag, (name, tags.get(name))

    def test_ancillary_tags_pinned(self):
        import repro.baselines.mcmc  # noqa: F401
        import repro.core.smc  # noqa: F401
        import repro.hpc.faults  # noqa: F401
        import repro.sim.groundtruth  # noqa: F401
        from repro.seir.seeding import STREAM_DOMAINS
        tags = STREAM_DOMAINS.tags("ancillary")
        for name, tag in self.PINNED_ANCILLARY_TAGS.items():
            assert tags.get(name) == tag, (name, tags.get(name))

    def test_tag_collision_raises(self):
        from repro.seir.seeding import register_stream_tag
        with pytest.raises(ValueError, match="alias"):
            register_stream_tag("not_the_simulation_stream", 0)

    def test_name_rebind_raises(self):
        from repro.seir.seeding import register_stream_tag
        with pytest.raises(ValueError, match="rebind"):
            register_stream_tag("simulation", 999)

    def test_reregistration_is_idempotent(self):
        from repro.seir.seeding import register_stream_tag
        assert register_stream_tag("simulation", 0) == 0

    def test_domains_are_separate_namespaces(self):
        # ancillary purpose 0 (smc_prior) coexists with bank tag 0
        # (simulation): collisions are per-domain.
        from repro.seir.seeding import STREAM_DOMAINS
        import repro.core.smc  # noqa: F401
        assert STREAM_DOMAINS.tags("bank")["simulation"] == 0
        assert STREAM_DOMAINS.tags("ancillary")["smc_prior"] == 0

    def test_lookup(self):
        from repro.seir.seeding import STREAM_DOMAINS
        entry = STREAM_DOMAINS.lookup("simulation", "bank")
        assert entry is not None and entry.tag == 0


class TestRngStateHelpers:
    """The serialisation helpers now live in seeding (the one sanctioned
    RNG construction site); the tauleap aliases must stay in lockstep."""

    def test_roundtrip(self):
        from repro.seir.seeding import (rng_from_jsonable,
                                        rng_state_to_jsonable)
        rng = generator_for(99)
        rng.integers(0, 100, size=7)
        clone = rng_from_jsonable(rng_state_to_jsonable(rng))
        assert np.array_equal(rng.integers(0, 2**31, size=16),
                              clone.integers(0, 2**31, size=16))

    def test_tauleap_aliases_point_here(self):
        from repro.seir import seeding, tauleap
        assert tauleap._rng_state_to_jsonable is seeding.rng_state_to_jsonable
        assert tauleap._rng_from_jsonable is seeding.rng_from_jsonable


class TestScenarioStreams:
    """Per-scenario independent stream roots (bank tag 5).

    ``scenario_base_seed`` is the CRN opt-out: its value is pinned because
    an ``independent_streams`` scenario's entire calibration is a pure
    function of the derived seed, so re-keying it silently re-rolls every
    such run.
    """

    def test_scenario_base_seed_pinned(self):
        from repro.seir.seeding import mix_seed
        bank = SeedSequenceBank(20240215)
        for key in (0, 7, 2**31):
            assert bank.scenario_base_seed(key) == mix_seed(20240215, 5, key)

    def test_scenario_roots_distinct_and_reproducible(self):
        bank = SeedSequenceBank(9)
        assert bank.scenario_base_seed(1) != bank.scenario_base_seed(2)
        assert (bank.scenario_base_seed(1)
                == SeedSequenceBank(9).scenario_base_seed(1))
        # key 0 must not collapse onto the undecorated base seed (that
        # would silently re-enable CRN for the first independent scenario)
        assert bank.scenario_base_seed(0) != 9

    def test_scenario_root_disjoint_from_window_streams(self):
        bank = SeedSequenceBank(9)
        assert bank.scenario_base_seed(3) != bank.window_draw_seed(3, 3)
        assert bank.scenario_base_seed(3) != bank.window_restart_seed(3, 3, 3)

    def test_negative_scenario_key_rejected(self):
        with pytest.raises(ValueError, match="scenario_key"):
            SeedSequenceBank(9).scenario_base_seed(-1)
