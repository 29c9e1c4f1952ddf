"""Unit tests for partitioning utilities."""

import pytest

from repro.hpc import chunk_sizes, partition_bounds


class TestChunkSizes:
    def test_even_split(self):
        assert chunk_sizes(10, 5) == [2, 2, 2, 2, 2]

    def test_remainder_goes_first(self):
        assert chunk_sizes(11, 4) == [3, 3, 3, 2]

    def test_more_parts_than_items(self):
        assert chunk_sizes(2, 5) == [1, 1, 0, 0, 0]

    def test_zero_items(self):
        assert chunk_sizes(0, 3) == [0, 0, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            chunk_sizes(-1, 2)
        with pytest.raises(ValueError):
            chunk_sizes(5, 0)


class TestBlockPartition:
    """``partition_bounds`` is the block partition, in half-open bounds."""

    def test_complete_and_disjoint(self):
        covered = [i for lo, hi in partition_bounds(17, 4)
                   for i in range(lo, hi)]
        assert covered == list(range(17))

    def test_blocks_contiguous(self):
        bounds = partition_bounds(12, 3)
        assert bounds[0][0] == 0 and bounds[-1][1] == 12
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))

    def test_bounds_consistent(self):
        bounds = partition_bounds(10, 3)
        assert bounds == [(0, 4), (4, 7), (7, 10)]


class TestShardBounds:
    def test_default_single_shard(self):
        from repro.hpc import shard_bounds
        assert shard_bounds(10) == [(0, 10)]

    def test_n_shards_even_chunking(self):
        from repro.hpc import shard_bounds
        assert shard_bounds(10, n_shards=4) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_no_empty_shards_when_overpartitioned(self):
        """n_particles < n_shards clamps the part count: no empty shards."""
        from repro.hpc import shard_bounds
        bounds = shard_bounds(3, n_shards=8)
        assert bounds == [(0, 1), (1, 2), (2, 3)]
        assert all(hi > lo for lo, hi in bounds)

    def test_shard_size_caps_every_shard(self):
        from repro.hpc import shard_bounds
        for n in (1, 5, 11, 12, 13, 100):
            bounds = shard_bounds(n, shard_size=4)
            sizes = [hi - lo for lo, hi in bounds]
            assert all(1 <= s <= 4 for s in sizes)
            assert sum(sizes) == n
            assert max(sizes) - min(sizes) <= 1

    def test_bounds_cover_contiguously(self):
        from repro.hpc import shard_bounds
        bounds = shard_bounds(17, n_shards=5)
        assert bounds[0][0] == 0 and bounds[-1][1] == 17
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))

    def test_zero_items_no_shards(self):
        from repro.hpc import shard_bounds
        assert shard_bounds(0, n_shards=3) == []

    def test_validation(self):
        from repro.hpc import shard_bounds
        with pytest.raises(ValueError):
            shard_bounds(5, shard_size=2, n_shards=2)
        with pytest.raises(ValueError):
            shard_bounds(5, shard_size=0)
        with pytest.raises(ValueError):
            shard_bounds(5, n_shards=0)
        with pytest.raises(ValueError):
            shard_bounds(-1)
