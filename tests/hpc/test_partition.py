"""Unit tests for the shard layout: ``shard_bounds``' block partition."""

import pytest

from repro.hpc import shard_bounds


def sizes(bounds):
    return [hi - lo for lo, hi in bounds]


class TestChunkSizes:
    """Shard sizes differ by at most one; the remainder goes first."""

    def test_even_split(self):
        assert sizes(shard_bounds(10, n_shards=5)) == [2, 2, 2, 2, 2]

    def test_remainder_goes_first(self):
        assert sizes(shard_bounds(11, n_shards=4)) == [3, 3, 3, 2]
        assert sizes(shard_bounds(11, shard_size=3)) == [3, 3, 3, 2]

    def test_more_parts_than_items(self):
        """The part count is clamped to the item count: no empty shard."""
        assert sizes(shard_bounds(2, n_shards=5)) == [1, 1]

    def test_zero_items(self):
        assert shard_bounds(0) == []
        assert shard_bounds(0, shard_size=4) == []


class TestBlockPartition:
    """The shards are the block partition, in half-open bounds."""

    def test_complete_and_disjoint(self):
        covered = [i for lo, hi in shard_bounds(17, n_shards=4)
                   for i in range(lo, hi)]
        assert covered == list(range(17))

    def test_bounds_consistent(self):
        assert shard_bounds(10, n_shards=3) == [(0, 4), (4, 7), (7, 10)]


class TestShardBounds:
    def test_default_single_shard(self):
        assert shard_bounds(10) == [(0, 10)]

    def test_n_shards_even_chunking(self):
        assert shard_bounds(10, n_shards=4) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_no_empty_shards_when_overpartitioned(self):
        """n_particles < n_shards clamps the part count: no empty shards."""
        bounds = shard_bounds(3, n_shards=8)
        assert bounds == [(0, 1), (1, 2), (2, 3)]
        assert all(hi > lo for lo, hi in bounds)

    def test_shard_size_caps_every_shard(self):
        for n in (1, 5, 11, 12, 13, 100):
            widths = sizes(shard_bounds(n, shard_size=4))
            assert all(1 <= w <= 4 for w in widths)
            assert sum(widths) == n
            assert max(widths) - min(widths) <= 1

    def test_bounds_cover_contiguously(self):
        bounds = shard_bounds(17, n_shards=5)
        assert bounds[0][0] == 0 and bounds[-1][1] == 17
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))

    def test_zero_items_no_shards(self):
        assert shard_bounds(0, n_shards=3) == []

    def test_validation(self):
        with pytest.raises(ValueError, match="not both"):
            shard_bounds(5, shard_size=2, n_shards=2)
        with pytest.raises(ValueError, match="shard_size must be >= 1"):
            shard_bounds(5, shard_size=0)
        with pytest.raises(ValueError, match="n_shards must be >= 1"):
            shard_bounds(5, n_shards=0)
        with pytest.raises(ValueError, match="n_items must be >= 0"):
            shard_bounds(-1)
