"""Fault tolerance for sharded dispatch: retries, structured failures, chaos.

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
* :class:`ChaosExecutor` + :class:`FaultPlan` — a deterministic
  fault-injection wrapper around any :class:`~repro.hpc.executor.Executor`
  that crashes, delays, drops, or corrupts scripted (or seeded) ``(shard, attempt)`` dispatches, so the chaos test suite and
  ``bench_faults.py`` can assert bit-identical convergence under faults.

Seeded fault plans draw through the run's
:class:`~repro.seir.seeding.SeedSequenceBank` on a registered ancillary
purpose, so chaos randomness can never alias simulation or resampling
streams.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..seir.seeding import SeedSequenceBank, register_ancillary_purpose
from .executor import (CAUSE_DROPPED, CAUSE_TIMEOUT, Executor, TaskOutcome)

__all__ = ["RetryPolicy", "FAIL_FAST", "ShardFailure", "ShardRetryError",
           "Fault", "FaultPlan", "FAULT_KINDS",
           "ChaosExecutor", "ChaosInjectedError", "CorruptedResult",
           "CAUSE_CORRUPT"]

_PURPOSE_CHAOS = register_ancillary_purpose(
    "chaos_faults", 40, description="seeded fault-plan draws (chaos testing)")

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
    shard's wait per attempt where the executor supports it.  With
    ``fallback_serial`` the final attempt runs shards in-process instead
    of on the pool — graceful degradation when the pool itself is the
    casualty.  None of this can change results: shard outputs depend only
    on the task payload, so a retried/relocated shard is bit-identical.
    """

    max_attempts: int = 3
    timeout_seconds: float | None = None
    backoff_seconds: float = 0.0
    fallback_serial: bool = True

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


# --------------------------------------------------------------------------- #
# Deterministic fault injection
# --------------------------------------------------------------------------- #
#: Injectable fault kinds:
#: ``crash``      worker raises (a deterministic worker exception),
#: ``hard_exit``  worker process dies mid-task (BrokenProcessPool on pools;
#:                degrades to a raise under in-process executors),
#: ``timeout``    the dispatch never returns within the attempt,
#: ``delay``      the task sleeps ``delay_seconds`` then succeeds,
#: ``drop``       the result vanishes (dispatched but never returned),
#: ``corrupt``    the result is replaced with a :class:`CorruptedResult`.
FAULT_KINDS = ("crash", "hard_exit", "timeout", "delay", "drop", "corrupt")

#: Kinds injected on the worker side of the dispatch (must ride the payload).
_WORKER_KINDS = frozenset({"crash", "hard_exit", "delay"})
#: Kinds injected on the parent side, before/after the actual dispatch.
_PARENT_SKIP_KINDS = frozenset({"timeout", "drop"})


class ChaosInjectedError(RuntimeError):
    """The deterministic exception raised by injected ``crash`` faults."""


@dataclass(frozen=True)
class CorruptedResult:
    """Stand-in payload substituted for a real result by ``corrupt`` faults."""

    original: Any = None


@dataclass(frozen=True)
class Fault:
    """One scripted fault: inject ``kind`` when ``shard`` hits ``attempt``."""

    kind: str
    shard: int
    attempt: int = 1
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {FAULT_KINDS}")
        if self.attempt < 1:
            raise ValueError("attempt is 1-based and must be >= 1")
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of faults keyed by ``(shard, attempt)``.

    Build scripted plans with :meth:`scripted` for targeted tests, or
    :meth:`seeded` for randomized-but-reproducible chaos sweeps: the plan
    is fully materialised at construction time from a
    :class:`~repro.seir.seeding.SeedSequenceBank` ancillary stream
    (purpose ``chaos_faults``), so the same ``(base_seed, rates)`` always
    injects the same faults and the plan is inspectable before the run.
    """

    faults: tuple[Fault, ...] = ()

    def fault_for(self, shard: int, attempt: int) -> Fault | None:
        """The fault scripted for this ``(shard, attempt)``, if any."""
        for fault in self.faults:
            if fault.shard == shard and fault.attempt == attempt:
                return fault
        return None

    @classmethod
    def scripted(cls, *faults: Fault) -> "FaultPlan":
        return cls(faults=tuple(faults))

    @classmethod
    def seeded(cls, base_seed: int, *, n_shards: int,
               rates: Mapping[str, float], max_attempts: int = 1,
               delay_seconds: float = 0.01) -> "FaultPlan":
        """Draw a reproducible plan: each ``(shard, attempt)`` cell gets at
        most one fault, kind ``k`` with probability ``rates[k]``.

        Draw order is fixed (shard-major, then attempt, one uniform per
        cell) so the plan depends only on ``(base_seed, n_shards,
        max_attempts, rates)``.
        """
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        kinds = [(kind, float(rates[kind])) for kind in FAULT_KINDS
                 if kind in rates]
        unknown = set(rates) - set(FAULT_KINDS)
        if unknown:
            raise ValueError(f"unknown fault kinds in rates: {sorted(unknown)}")
        if sum(rate for _, rate in kinds) > 1.0:
            raise ValueError("fault rates must sum to <= 1")
        rng = SeedSequenceBank(base_seed).ancillary_generator(_PURPOSE_CHAOS)
        faults = []
        for shard in range(n_shards):
            for attempt in range(1, max_attempts + 1):
                u = float(rng.random())
                cum = 0.0
                for kind, rate in kinds:
                    cum += rate
                    if u < cum:
                        faults.append(Fault(kind=kind, shard=shard,
                                            attempt=attempt,
                                            delay_seconds=delay_seconds))
                        break
        return cls(faults=tuple(faults))


@dataclass(frozen=True)
class _ChaosCall:
    """Worker-side payload: the real call plus its injected fault, if any.

    A module-level dataclass (not a closure) so process pools can pickle
    it; ``parent_pid`` lets ``hard_exit`` distinguish a genuine child
    process (kill it, producing a real ``BrokenProcessPool``) from
    in-process execution (raise instead, so serial runs degrade to
    an ordinary worker exception rather than killing the test process).
    """

    fn: Callable[[Any], Any]
    task: Any
    kind: str = ""
    delay_seconds: float = 0.0
    parent_pid: int = 0


def _chaos_run(call: _ChaosCall) -> Any:
    """Execute one chaos call (module-level: picklable worker entry)."""
    if call.kind == "crash":
        raise ChaosInjectedError("chaos: injected worker crash")
    if call.kind == "hard_exit":
        if call.parent_pid and os.getpid() != call.parent_pid:
            os._exit(1)
        raise ChaosInjectedError(
            "chaos: injected worker loss (in-process degrade)")
    if call.kind == "delay" and call.delay_seconds > 0:
        time.sleep(call.delay_seconds)
    return call.fn(call.task)


class ChaosExecutor(Executor):
    """Deterministic fault-injection wrapper around any executor.

    Each dispatched task is keyed by its ``shard_id`` attribute (falling
    back to its position in the submitted batch) and a cumulative
    per-key dispatch counter — the "attempt" seen by the
    :class:`FaultPlan`, which lines up with the retry layer's attempt
    numbering because every retry re-dispatches the shard through this
    wrapper.  Faults actually injected are appended to :attr:`injected`
    for test assertions.

    The fault model lives in ``map_each``, the path shard dispatch takes:
    ``timeout``/``drop`` surface as failed outcomes, ``corrupt`` as a
    :class:`CorruptedResult` value.  ``map`` is a strict adapter over it
    that raises on the first failed outcome.
    """

    def __init__(self, inner: Executor, plan: FaultPlan) -> None:
        self._inner = inner
        self._plan = plan
        self._dispatch_counts: dict[int, int] = {}
        self.injected: list[Fault] = []

    @property
    def workers(self) -> int:
        return self._inner.workers

    def close(self) -> None:
        self._inner.close()

    def reset(self) -> None:
        """Forget dispatch counts (reuse one wrapper across runs)."""
        self._dispatch_counts.clear()
        self.injected.clear()

    def _decide(self, task: Any, index: int) -> Fault | None:
        key = int(getattr(task, "shard_id", index))
        attempt = self._dispatch_counts.get(key, 0) + 1
        self._dispatch_counts[key] = attempt
        fault = self._plan.fault_for(key, attempt)
        if fault is not None:
            self.injected.append(fault)
        return fault

    def map(self, fn: Callable[[Any], Any], tasks: Iterable[Any]) -> list[Any]:
        outcomes = self.map_each(fn, tasks)
        for i, outcome in enumerate(outcomes):
            if not outcome.ok:
                raise RuntimeError(f"task {i} failed [{outcome.cause}] "
                                   f"{outcome.error}")
        return [outcome.value for outcome in outcomes]

    def map_each(self, fn: Callable[[Any], Any], tasks: Iterable[Any],
                 timeout: float | None = None) -> list[TaskOutcome]:
        task_list = list(tasks)
        faults = [self._decide(t, i) for i, t in enumerate(task_list)]
        kinds = ["" if fault is None else fault.kind for fault in faults]
        delays = [0.0 if fault is None else fault.delay_seconds
                  for fault in faults]
        sent = [i for i, kind in enumerate(kinds)
                if kind not in _PARENT_SKIP_KINDS]
        pid = os.getpid()
        calls = [_ChaosCall(fn=fn, task=task_list[i],
                            kind=kinds[i] if kinds[i] in _WORKER_KINDS else "",
                            delay_seconds=delays[i], parent_pid=pid)
                 for i in sent]
        returned = dict(zip(sent, self._inner.map_each(_chaos_run, calls,
                                                       timeout=timeout)))
        outcomes: list[TaskOutcome] = []
        for i, kind in enumerate(kinds):
            outcome = returned.get(i)
            if outcome is None:
                cause = CAUSE_TIMEOUT if kind == "timeout" else CAUSE_DROPPED
                outcome = TaskOutcome(cause=cause,
                                      error=f"chaos injected {kind}")
            elif kind == "corrupt" and outcome.ok:
                outcome = TaskOutcome(
                    value=CorruptedResult(original=outcome.value))
            outcomes.append(outcome)
        return outcomes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ChaosExecutor({self._inner!r}, faults={len(self._plan.faults)})"
