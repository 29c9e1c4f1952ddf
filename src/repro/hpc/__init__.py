"""HPC execution substrate: executors, shard partitioning, fault-tolerant
sharded dispatch of batched ensemble simulation, and checkpoint stores.

The chaos harness that injects shard faults for tests lives in
:mod:`repro.testing.chaos`, not here."""

from .checkpoint_io import CheckpointStore, write_json_atomic
from .executor import (Executor, ProcessExecutor, SerialExecutor,
                       TaskOutcome, make_executor)
from .faults import RetryPolicy, ShardFailure, ShardRetryError
from .partition import chunk_sizes, partition_bounds, shard_bounds
from .sharding import (GroupShards, GroupSpec, ShardResult, ShardTask,
                       dispatch_shards, run_shard, simulate_groups,
                       simulate_members)

__all__ = [
    "Executor", "SerialExecutor", "ProcessExecutor", "make_executor",
    "TaskOutcome",
    "RetryPolicy", "ShardFailure", "ShardRetryError",
    "chunk_sizes", "partition_bounds", "shard_bounds",
    "GroupSpec", "GroupShards", "ShardTask", "ShardResult",
    "run_shard", "dispatch_shards", "simulate_groups", "simulate_members",
    "CheckpointStore", "write_json_atomic",
]
