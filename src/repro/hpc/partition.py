"""Block partitioning of an ordered batch into contiguous shards.

The sharded dispatch (:mod:`repro.hpc.sharding`) splits each window's
batch into contiguous, evenly sized blocks; these helpers compute the
block sizes and half-open bounds.
"""

from __future__ import annotations

__all__ = ["chunk_sizes", "partition_bounds", "shard_bounds"]


def _validate(n_items: int, n_parts: int) -> None:
    if n_items < 0:
        raise ValueError("n_items must be >= 0")
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")


def chunk_sizes(n_items: int, n_parts: int) -> list[int]:
    """Sizes of a balanced block split: sizes differ by at most one.

    The first ``n_items % n_parts`` parts receive the extra item, matching
    the convention of ``MPI_Scatterv`` examples.
    """
    _validate(n_items, n_parts)
    base, extra = divmod(n_items, n_parts)
    return [base + (1 if i < extra else 0) for i in range(n_parts)]


def partition_bounds(n_items: int, n_parts: int) -> list[tuple[int, int]]:
    """Half-open ``(start, end)`` index bounds of each block."""
    sizes = chunk_sizes(n_items, n_parts)
    bounds = []
    start = 0
    for size in sizes:
        bounds.append((start, start + size))
        start += size
    return bounds


def shard_bounds(n_items: int, *, shard_size: int | None = None,
                 n_shards: int | None = None) -> list[tuple[int, int]]:
    """Half-open shard bounds for splitting an ordered batch across workers.

    The shard layout contract shared by the calibrator's sharded batched
    simulation and batched forecasting: contiguous, evenly chunked (sizes
    differ by at most one), and **never empty** — when ``n_shards`` exceeds
    ``n_items`` the part count is clamped to ``n_items``, so every shard
    carries at least one member and a degenerate layout can never produce
    an empty batch engine.

    Exactly one sizing mode applies:

    * ``shard_size`` — target members per shard; the part count is
      ``ceil(n_items / shard_size)`` and even chunking guarantees no shard
      exceeds ``shard_size``.
    * ``n_shards`` — explicit part count (clamped to ``n_items``).

    With neither set, one shard covers everything.  ``n_items == 0``
    returns no shards at all.
    """
    if shard_size is not None and n_shards is not None:
        raise ValueError("pass shard_size or n_shards, not both")
    if shard_size is not None and shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    if n_shards is not None and n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if n_items < 0:
        raise ValueError("n_items must be >= 0")
    if n_items == 0:
        return []
    if shard_size is not None:
        n_parts = -(-n_items // shard_size)
    else:
        n_parts = n_shards if n_shards is not None else 1
    return partition_bounds(n_items, min(n_parts, n_items))

