"""Fault tolerance for sharded dispatch: retries and structured failures.

At paper scale (25,000 x 20 over many worker-hours) preempted workers,
OOM kills, and node failures are the normal case, not the exception.  This
module makes the sharded dispatch layer survive them without giving up the
repo's reproducibility contract:

* :class:`RetryPolicy` — deterministic shard retries (max attempts, linear
  backoff, per-shard timeout, serial in-process fallback on the final
  attempt); every shard dispatch runs under one, :data:`FAIL_FAST` by
  default.  Re-executing a shard is *provably* safe because shard outputs
  are pure functions of ``(base_seed, shard layout)`` — the per-shard RNG
  contract of :func:`~repro.seir.seeding.batch_generator_for` — never of
  which worker ran them.
* :class:`ShardFailure` / :class:`ShardRetryError` — structured failure
  records (shard id, attempt, cause) instead of an opaque pool crash.

The fault-injection harness that proves this — ``ChaosExecutor`` and its
``FaultPlan`` — is test scaffolding and lives in :mod:`repro.testing.chaos`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["RetryPolicy", "FAIL_FAST", "ShardFailure", "ShardRetryError",
           "CAUSE_CORRUPT"]

#: Failure cause recorded when a shard echoes a malformed/corrupted result.
CAUSE_CORRUPT = "corrupt_result"


# --------------------------------------------------------------------------- #
# Retry policy and structured failures
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic shard-retry policy.

    Every shard dispatch runs under one: ``max_attempts`` bounds
    dispatches per shard, and 1 (:data:`FAIL_FAST`, the default of every
    dispatch entry point) fails the run on the first shard failure with a
    structured :class:`ShardRetryError`.  ``backoff_seconds``
    is a *linear deterministic* backoff — attempt ``k`` waits
    ``backoff_seconds * (k - 1)`` before dispatch, no jitter, so retried
    runs have reproducible scheduling.  ``timeout_seconds`` bounds each
    shard's wait per attempt where the executor supports it.  The final
    attempt of a multi-attempt policy runs shards in-process instead of on
    the pool — graceful degradation when the pool itself is the casualty.
    None of this can change results: shard outputs depend only on the
    task payload, so a retried/relocated shard is bit-identical.
    """

    max_attempts: int = 3
    timeout_seconds: float | None = None
    backoff_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive when set")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds must be >= 0")

    def backoff_for(self, attempt: int) -> float:
        """Seconds to wait before dispatch attempt ``attempt`` (1-based)."""
        return self.backoff_seconds * max(0, attempt - 1)


#: One attempt, no retries: the default policy of every shard dispatch.
FAIL_FAST = RetryPolicy(max_attempts=1)


@dataclass(frozen=True)
class ShardFailure:
    """One failed shard dispatch attempt (structured, not an exception)."""

    shard_id: int
    attempt: int
    cause: str
    error: str = ""


class ShardRetryError(RuntimeError):
    """Raised when shards still fail after the retry budget is exhausted.

    Carries the full per-attempt failure history in ``failures`` so the
    caller (or the operator reading the traceback) sees every shard id,
    attempt number, and cause, not just the last straw.
    """

    def __init__(self, message: str,
                 failures: Sequence[ShardFailure] = ()) -> None:
        super().__init__(message)
        self.failures: tuple[ShardFailure, ...] = tuple(failures)
