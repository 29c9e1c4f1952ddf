"""Sharded dispatch of batched ensemble simulation across executor workers.

The batched engine (:class:`~repro.seir.batch_engine.BatchedBinomialLeapEngine`)
advances a whole particle cloud as one state matrix, but in a single
process.  A batch's members share every
:class:`~repro.seir.parameters.DiseaseParameters` field but the
transmission rate, so each cloud is one :class:`GroupSpec`.
:func:`simulate_groups`, the one front door, splits every spec it is
given into contiguous, evenly chunked sub-batches (:func:`shard_bounds`),
maps all of their shards across any
:class:`~repro.hpc.executor.Executor` in one dispatch, and stacks each
spec's shard outputs **in order**, so the calibrator (one spec per
world-line of a window) and the forecaster get multi-core scaling of the
already-batched hot path without giving up batching.

Design contract
---------------
* **Per-shard RNG** — every shard is its own batch: its stream is keyed by
  the ordered seed vector of its slice
  (:func:`~repro.seir.seeding.batch_generator_for` over the slice).
  Results are therefore bit-reproducible given ``(base_seed, shard
  layout)`` and independent of which executor (or process) runs each
  shard, or of which other specs share the dispatch; different layouts
  agree in distribution only.
* **Lean payloads** — one :class:`ShardTask` per shard carries the batch's
  one :class:`~repro.seir.parameters.DiseaseParameters` record, the
  slice's seed/theta vectors, and (for restarts) the slice of the stacked
  parent state's engine columns — never per-particle parameters, dicts or
  JSON.  With a :class:`~repro.hpc.executor.SerialExecutor`
  nothing is pickled at all (its ``map_each`` calls :func:`run_shard` in
  process), which is the single-shard fast path the calibrator uses by
  default.
* **One dispatch path** — :func:`dispatch_shards` always runs the
  retrying ``map_each`` loop under a
  :class:`~repro.hpc.faults.RetryPolicy` (default
  :data:`~repro.hpc.faults.FAIL_FAST`, one attempt) and validates every
  echoed result against its task, so a shard that fails, is dropped or
  comes back as another shard's output surfaces as a structured
  :class:`~repro.hpc.faults.ShardRetryError`, never as a silently
  misassembled ensemble.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

import numpy as np

from ..seir.batch_engine import BatchedBinomialLeapEngine, BatchTrajectory
from ..seir.checkpoint import StackedLeapState
from ..seir.parameters import DiseaseParameters
from .executor import Executor, SerialExecutor
from .faults import (CAUSE_CORRUPT, FAIL_FAST, RetryPolicy, ShardFailure,
                     ShardRetryError)

__all__ = ["GroupSpec", "ShardTask", "ShardResult", "run_shard",
           "dispatch_shards", "simulate_groups", "shard_bounds",
           "validate_shard_policy", "resolve_shard_layout"]


# --------------------------------------------------------------------------- #
# Shard layout
# --------------------------------------------------------------------------- #
def validate_shard_policy(shard_size: int | None,
                          n_shards: int | str) -> None:
    """Reject malformed shard knobs: the one check of a shard layout,
    made by the config, by :func:`resolve_shard_layout` and by
    :func:`shard_bounds`."""
    if shard_size is not None and shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    if isinstance(n_shards, str):
        if n_shards != "auto":
            raise ValueError(
                f"n_shards must be 'auto' or an int >= 1, got {n_shards!r}")
    elif n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if shard_size is not None and n_shards != "auto":
        raise ValueError("pass shard_size or an explicit n_shards, not both")


def resolve_shard_layout(executor: Executor, *, shard_size: int | None = None,
                         n_shards: int | str = "auto") -> dict:
    """Validate a shard policy and resolve it against an executor.

    The single implementation of the layout policy shared by the
    calibrator and the forecaster: an explicit ``shard_size`` (members per
    shard) wins and excludes an explicit ``n_shards``; ``n_shards="auto"``
    targets one shard per executor worker (a serial executor keeps the
    single-shard in-process fast path).  Returns the keyword dict
    :func:`simulate_groups` / :func:`shard_bounds` expect.
    """
    validate_shard_policy(shard_size, n_shards)
    if shard_size is not None:
        return {"shard_size": shard_size}
    if n_shards == "auto":
        return {"n_shards": max(1, executor.workers)}
    return {"n_shards": n_shards}


def shard_bounds(n_items: int, *, shard_size: int | None = None,
                 n_shards: int | None = None) -> list[tuple[int, int]]:
    """Half-open shard bounds for splitting an ordered batch across workers.

    The shard layout contract of every sharded simulation: contiguous,
    evenly chunked (sizes differ by at most one, the first ``n_items %
    parts`` shards taking the extra member), and **never empty** — when
    ``n_shards`` exceeds ``n_items`` the part count is clamped to
    ``n_items``, so every shard carries at least one member and a
    degenerate layout can never produce an empty batch engine.

    Exactly one sizing mode applies:

    * ``shard_size`` — target members per shard; the part count is
      ``ceil(n_items / shard_size)`` and even chunking guarantees no shard
      exceeds ``shard_size``.
    * ``n_shards`` — explicit part count (clamped to ``n_items``).

    With neither set, one shard covers everything.  ``n_items == 0``
    returns no shards at all.
    """
    if n_items < 0:
        raise ValueError("n_items must be >= 0")
    validate_shard_policy(shard_size, "auto" if n_shards is None else n_shards)
    if n_items == 0:
        return []
    n_parts = min(n_items, -(-n_items // shard_size)
                  if shard_size is not None else n_shards or 1)
    base, extra = divmod(n_items, n_parts)
    starts = [part * base + min(part, extra) for part in range(n_parts + 1)]
    return list(zip(starts[:-1], starts[1:]))


# --------------------------------------------------------------------------- #
# Shard task / result (module-level and array-backed: picklable and lean)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardTask:
    """One contiguous sub-batch of a group, ready to simulate.

    Exactly one of ``start_day`` (fresh start from the seeding state) and
    ``state`` (restart from a slice of stacked parent checkpoints) is set.
    ``seeds`` is the shard's slice of the group's ordered seed vector and
    keys the shard's batch RNG stream.  Every member runs under ``params``,
    the group's one parameter record, at its own ``thetas`` entry; a
    restart's ``state`` carries the slice's engine columns only.
    ``engine_options`` apply to fresh starts only: a restart inherits its
    clock and ``steps_per_day`` from the stacked state, so restart tasks
    carry an empty dict.
    """

    shard_id: int
    params: DiseaseParameters
    seeds: np.ndarray
    thetas: np.ndarray
    end_day: int
    engine_options: dict = field(default_factory=dict)
    start_day: int | None = None
    state: StackedLeapState | None = None
    return_state: bool = True

    def __post_init__(self) -> None:
        if (self.start_day is None) == (self.state is None):
            raise ValueError("exactly one of start_day/state must be set")
        # The payload crosses a process boundary: refuse a malformed one
        # here rather than as a broadcast error inside a worker.
        for name, dtype in (("seeds", "int64"), ("thetas", "float64")):
            value = np.asarray(getattr(self, name))
            if value.ndim != 1 or value.dtype != np.dtype(dtype):
                raise ValueError(
                    f"ShardTask.{name} must be a 1-d {dtype} vector, got "
                    f"shape {value.shape} {value.dtype}")
        if len(self.thetas) != len(self.seeds):
            raise ValueError(
                f"ShardTask.thetas has {len(self.thetas)} entries for "
                f"{len(self.seeds)} seeds")


@dataclass(frozen=True)
class ShardResult:
    """Stacked outputs of one shard, tagged for ordered reassembly."""

    shard_id: int
    batch: BatchTrajectory
    state: StackedLeapState | None


def run_shard(task: ShardTask) -> ShardResult:
    """Simulate one shard (worker-side entry point; picklable).

    The engine keys the shard's own batch stream by its seed slice
    (:func:`~repro.seir.seeding.batch_generator_for`), so a shard's result
    is a pure function of the task payload, whichever process runs it.
    """
    seeds = np.asarray(task.seeds, dtype=np.int64)
    thetas = np.asarray(task.thetas, dtype=np.float64)
    if task.state is not None:
        engine = BatchedBinomialLeapEngine.from_particle_snapshots(
            task.state, task.params, seeds=seeds, thetas=thetas)
    else:
        engine = BatchedBinomialLeapEngine(
            task.params, seeds, thetas=thetas, start_day=task.start_day,
            **dict(task.engine_options))
    batch = engine.run_until(task.end_day)
    state = None
    if task.return_state:
        state = StackedLeapState(
            day=engine.day, steps_per_day=engine.steps_per_day,
            counts=engine.counts, cum_infections=engine.cumulative_infections,
            cum_deaths=engine.cumulative_deaths, seeds=seeds)
    return ShardResult(shard_id=task.shard_id, batch=batch, state=state)


def _result_defect(task: ShardTask, result: Any) -> str | None:
    """Why ``result`` cannot be shard ``task``'s output (``None`` = valid).

    The retry layer treats a defective echo (wrong type, wrong shard id,
    wrong member count, mismatched state seeds) as a failed attempt rather
    than poisoning the reassembled ensemble — corrupted results are a real
    failure mode when workers die mid-serialisation.
    """
    if not isinstance(result, ShardResult):
        return f"result is {type(result).__name__}, not ShardResult"
    if result.shard_id != task.shard_id:
        return f"echoed shard id {result.shard_id}, expected {task.shard_id}"
    n = len(task.seeds)
    if result.batch.n_particles != n:
        return (f"batch covers {result.batch.n_particles} members, "
                f"expected {n}")
    if task.return_state:
        if result.state is None:
            return "missing stacked state (task asked return_state=True)"
        if not np.array_equal(np.asarray(result.state.seeds, dtype=np.int64),
                              np.asarray(task.seeds, dtype=np.int64)):
            return "stacked state seeds do not match the task's seed slice"
    return None


def dispatch_shards(executor: Executor, tasks: Sequence[ShardTask], *,
                    retry: RetryPolicy = FAIL_FAST,
                    on_failure: Callable[[ShardFailure], None] | None = None
                    ) -> list[ShardResult]:
    """Map shards across the executor; return their results in task order.

    The one dispatch path.  Attempt ``k`` waits the policy's deterministic
    backoff, dispatches the still-pending shards via ``map_each``
    (failure-isolating, per-shard timeout), validates every echoed result
    (:func:`_result_defect`: a wrong type, shard id, member count or seed
    slice is a ``corrupt_result``), and reports each miss to
    ``on_failure`` as a structured :class:`~repro.hpc.faults.ShardFailure`.
    The final attempt of a multi-attempt policy runs in-process, on a
    :class:`~repro.hpc.executor.SerialExecutor` without a timeout — the
    degradation path when the pool itself died.  Shards still failing
    when the budget runs out raise
    :class:`~repro.hpc.faults.ShardRetryError` with the full history; the
    default :data:`~repro.hpc.faults.FAIL_FAST` policy makes one attempt.
    Results are bit-identical either way — shard outputs depend only on
    ``(base_seed, shard layout)``, never on which worker or attempt
    produced them.
    """
    task_list = list(tasks)
    ordered: list[ShardResult | None] = [None] * len(task_list)
    failures: list[ShardFailure] = []
    pending = list(range(len(task_list)))
    for attempt in range(1, retry.max_attempts + 1):
        if not pending:
            break
        wait = retry.backoff_for(attempt)
        if wait > 0.0:
            time.sleep(wait)
        batch = [task_list[i] for i in pending]
        if attempt == retry.max_attempts and attempt > 1:
            outcomes = SerialExecutor().map_each(run_shard, batch)
        else:
            outcomes = executor.map_each(run_shard, batch,
                                         timeout=retry.timeout_seconds)
        still_pending = []
        for slot, outcome in zip(pending, outcomes, strict=True):
            cause, error = outcome.cause, outcome.error
            if cause is None:
                defect = _result_defect(task_list[slot], outcome.value)
                if defect is None:
                    ordered[slot] = outcome.value
                    continue
                cause, error = CAUSE_CORRUPT, defect
            failure = ShardFailure(shard_id=task_list[slot].shard_id,
                                   attempt=attempt, cause=cause, error=error)
            failures.append(failure)
            if on_failure is not None:
                on_failure(failure)
            still_pending.append(slot)
        pending = still_pending
    if pending:
        lost = [task_list[i].shard_id for i in pending]
        raise ShardRetryError(
            f"shards {lost} still failing after {retry.max_attempts} "
            f"attempt(s); failure history: "
            + "; ".join(f"shard {f.shard_id} attempt {f.attempt} "
                        f"[{f.cause}] {f.error}" for f in failures),
            failures)
    return ordered  # type: ignore[return-value]




# --------------------------------------------------------------------------- #
# Group-level front door
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class GroupSpec:
    """One batch's simulation order (parent-side, never pickled).

    Every member runs under ``params`` with its own ``thetas`` entry as the
    transmission rate; ``seeds``/``thetas`` are the batch's full ordered
    vectors.  ``start_day`` or ``state`` selects fresh-start vs
    checkpoint-restart exactly as in :class:`ShardTask` (``state`` covers
    the whole batch; each shard gets its slice's engine columns).
    """

    params: DiseaseParameters
    seeds: np.ndarray
    thetas: np.ndarray
    start_day: int | None = None
    state: StackedLeapState | None = None


FailureSink = Callable[[ShardFailure], None]


def simulate_groups(executor: Executor, specs: Sequence[GroupSpec], *,
                    end_day: int,
                    engine: str = BatchedBinomialLeapEngine.name,
                    engine_options: dict | None = None,
                    shard_size: int | None = None, n_shards: int | None = None,
                    return_state: bool = True,
                    retry: RetryPolicy = FAIL_FAST,
                    on_failure: FailureSink | Sequence[FailureSink | None]
                    | None = None
                    ) -> list[tuple[BatchTrajectory, StackedLeapState | None]]:
    """Simulate every spec in shards, all in **one** dispatch.

    The one front door from group specs to shards: a window step passes
    one spec per world-line, a forecast one restart spec.  Each spec is
    chunked by :func:`shard_bounds` (``shard_size`` wins over
    ``n_shards``; both ``None`` → one shard per spec, the serial fast
    path) and every spec's shards go to one :func:`dispatch_shards` call,
    so workers interleave shards from every spec.  Shard ids are
    positions in that flat task list, never RNG keys: a shard's stream is
    keyed by its seed slice alone, so each spec's output is bit-identical
    to dispatching it alone under the same layout.

    Returns, per spec and in order, its shards' trajectories and (with
    ``return_state``) restart states stacked in member order; the state
    is ``None`` otherwise.  A one-shard spec gets its shard's own batch
    and state, not stacked copies.  ``retry`` (default
    :data:`~repro.hpc.faults.FAIL_FAST`) goes to :func:`dispatch_shards`;
    ``on_failure`` is one callable that hears every shard failure as it
    happens, or one entry per spec (``None`` to ignore) that hears only
    that spec's.

    Every shard runs
    :class:`~repro.seir.batch_engine.BatchedBinomialLeapEngine`; ``engine``
    only accepts that engine's name (callers that echo
    ``SMCConfig.engine`` keep working) and raises ``ValueError`` on any
    other.
    """
    if engine != BatchedBinomialLeapEngine.name:
        raise ValueError(f"unknown batch engine {engine!r}; only "
                         f"{BatchedBinomialLeapEngine.name!r} runs shards")
    sinks: list[FailureSink | None]
    if on_failure is None or callable(on_failure):
        sinks = [on_failure] * len(specs)
    else:
        sinks = list(on_failure)
        if len(sinks) != len(specs):
            raise ValueError(f"on_failure has {len(sinks)} entries for "
                             f"{len(specs)} specs")
    tasks: list[ShardTask] = []
    owner: list[int] = []  # shard id -> spec index
    spans: list[tuple[int, int]] = []
    for index, spec in enumerate(specs):
        seeds = np.asarray(spec.seeds, dtype=np.int64)
        thetas = np.asarray(spec.thetas, dtype=np.float64)
        rows = None if spec.state is None else replace(
            spec.state, params=None, thetas=None)
        first = len(tasks)
        for lo, hi in shard_bounds(len(seeds), shard_size=shard_size,
                                   n_shards=n_shards):
            owner.append(index)
            tasks.append(ShardTask(
                shard_id=len(tasks), params=spec.params,
                seeds=seeds[lo:hi], thetas=thetas[lo:hi], end_day=end_day,
                engine_options=(dict(engine_options or {})
                                if spec.start_day is not None else {}),
                start_day=spec.start_day, return_state=return_state,
                state=None if rows is None else rows.take(slice(lo, hi))))
        spans.append((first, len(tasks)))

    def route(failure: ShardFailure) -> None:
        sink = sinks[owner[failure.shard_id]]
        if sink is not None:
            sink(failure)

    results = dispatch_shards(executor, tasks, retry=retry, on_failure=route)
    stacked: list[tuple[BatchTrajectory, StackedLeapState | None]] = []
    for lo, hi in spans:
        if hi - lo == 1:  # one shard: its own arrays, not a stacked copy
            stacked.append((results[lo].batch, results[lo].state))
            continue
        batch = BatchTrajectory.concatenate([r.batch for r in results[lo:hi]])
        states = [r.state for r in results[lo:hi] if r.state is not None]
        stacked.append((batch, StackedLeapState.concatenate(states)
                        if states else None))
    return stacked
