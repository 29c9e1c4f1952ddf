"""HPC execution substrate: executors, fault-tolerant sharded dispatch of
batched ensemble simulation (one front door, :func:`simulate_groups`, over
:func:`shard_bounds` layouts), and checkpoint stores.

The chaos harness that injects shard faults for tests lives in
:mod:`repro.testing.chaos`, not here."""

from .checkpoint_io import CheckpointStore, write_json_atomic
from .executor import (Executor, ProcessExecutor, SerialExecutor,
                       TaskOutcome, make_executor)
from .faults import RetryPolicy, ShardFailure, ShardRetryError
from .sharding import (GroupSpec, ShardResult, ShardTask, dispatch_shards,
                       run_shard, shard_bounds, simulate_groups)

__all__ = [
    "Executor", "SerialExecutor", "ProcessExecutor", "make_executor",
    "TaskOutcome",
    "RetryPolicy", "ShardFailure", "ShardRetryError",
    "shard_bounds",
    "GroupSpec", "ShardTask", "ShardResult",
    "run_shard", "dispatch_shards", "simulate_groups",
    "CheckpointStore", "write_json_atomic",
]
