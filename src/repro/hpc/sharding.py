"""Sharded dispatch of batched ensemble simulation across executor workers.

The batched engine (:class:`~repro.seir.batch_engine.BatchedBinomialLeapEngine`)
advances a whole particle cloud as one state matrix — ~18x faster than
per-particle tasks, but single-process.  This module splits each window's
structural groups into contiguous, evenly chunked sub-batches
(:func:`~repro.hpc.partition.shard_bounds`), maps the shards across any
:class:`~repro.hpc.executor.Executor`, and reassembles the stacked shard
outputs **in order**, so the calibrator and the forecaster get multi-core
scaling of the already-batched hot path without giving up batching.

Design contract
---------------
* **Per-shard RNG** — every shard is its own batch: its stream is keyed by
  the ordered seed vector of its slice
  (:meth:`~repro.seir.seeding.SeedSequenceBank.shard_simulation_generators`).
  Results are therefore bit-reproducible given ``(base_seed, shard
  layout)`` and independent of which executor (or process) runs each
  shard; different layouts agree in distribution only.
* **Lean payloads** — one :class:`ShardTask` per shard carries the shared
  structural parameters once, the slice's seed/theta vectors, and (for
  restarts) the slice of the stacked parent state — never per-particle
  dicts or JSON.  With a :class:`~repro.hpc.executor.SerialExecutor`
  nothing is pickled at all (its ``map`` calls :func:`run_shard` in
  process), which is the single-shard fast path the calibrator uses by
  default.
* **Ordered reassembly** — executors must preserve task order, but
  :func:`dispatch_shards` does not rely on it: every result echoes its
  ``shard_id`` and is placed by it, so even a misbehaving out-of-order
  backend reassembles the ensemble correctly (or fails loudly on
  duplicates/omissions).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from ..core.contracts import check_shaped
from ..seir.batch_engine import BatchedBinomialLeapEngine, BatchTrajectory
from ..seir.checkpoint import StackedLeapState
from ..seir.outputs import Trajectory
from ..seir.parameters import DiseaseParameters
from ..seir.seeding import batch_generator_for
from ..seir.tauleap import transition_table_key
from .executor import CAUSE_EXCEPTION, Executor, TaskOutcome
from .faults import CAUSE_CORRUPT, RetryPolicy, ShardFailure, ShardRetryError
from .partition import shard_bounds

__all__ = ["GroupSpec", "GroupShards", "ShardTask", "ShardResult",
           "run_shard", "dispatch_shards", "simulate_groups",
           "simulate_group_sets", "simulate_members", "structural_groups",
           "build_group_specs", "reassemble", "validate_shard_policy",
           "resolve_shard_layout"]


def validate_shard_policy(shard_size: int | None,
                          n_shards: int | str) -> None:
    """Reject malformed shard knobs (shared by config- and call-time checks)."""
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
    :func:`simulate_groups` / :func:`~repro.hpc.partition.shard_bounds`
    expect.
    """
    validate_shard_policy(shard_size, n_shards)
    if shard_size is not None:
        return {"shard_size": shard_size}
    if n_shards == "auto":
        return {"n_shards": max(1, executor.workers)}
    return {"n_shards": n_shards}


def structural_groups(params_list: Sequence[DiseaseParameters]) -> list[list[int]]:
    """Index groups sharing one batched-engine structure.

    Members of a batch must agree on everything the engine compiles or
    initialises from (population, seeding, stage structure); only the
    transmission rate is carried per member.  With the calibrator's default
    ``param_map`` (theta only) there is exactly one group.  A ``param_map``
    targeting a *structural* field with a continuous jitter makes every
    particle its own group, degrading each group to a singleton batch.
    """
    groups: dict[tuple, list[int]] = {}
    for idx, params in enumerate(params_list):
        key = (params.population, params.initial_exposed,
               transition_table_key(params))
        groups.setdefault(key, []).append(idx)
    return list(groups.values())


# --------------------------------------------------------------------------- #
# Shard task / result (module-level and array-backed: picklable and lean)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardTask:
    """One contiguous sub-batch of a structural group, ready to simulate.

    Exactly one of ``start_day`` (fresh start from the seeding state) and
    ``state`` (restart from a slice of stacked parent checkpoints) is set.
    ``seeds`` is the shard's slice of the group's ordered seed vector and
    keys the shard's batch RNG stream.  ``engine_options`` apply to fresh
    starts only: a restart inherits its clock and ``steps_per_day`` from
    the stacked state, so restart tasks carry an empty dict.
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
        # Shared `dims` ties the two vectors to one member count; live
        # check (not decoration-time) because tasks are built on workers
        # that may inherit a different environment than the importer.
        dims: dict[str, int] = {}
        check_shaped(self.seeds, "(n_members,) int64", name="seeds",
                     dims=dims, where="ShardTask")
        check_shaped(self.thetas, "(n_members,) float64", name="thetas",
                     dims=dims, where="ShardTask")


@dataclass(frozen=True)
class ShardResult:
    """Stacked outputs of one shard, tagged for ordered reassembly."""

    shard_id: int
    batch: BatchTrajectory
    state: StackedLeapState | None


def run_shard(task: ShardTask) -> ShardResult:
    """Simulate one shard (worker-side entry point; picklable).

    Builds the shard's own batch stream from its seed slice via
    :func:`~repro.seir.seeding.batch_generator_for` — the same keying
    function behind
    :meth:`~repro.seir.seeding.SeedSequenceBank.shard_simulation_generators`
    (the bank method is the parent-side front door; both sides delegate to
    the one function, which is what makes shard results a pure function of
    the task payload regardless of which process runs them).
    """
    seeds = np.asarray(task.seeds, dtype=np.int64)
    thetas = np.asarray(task.thetas, dtype=np.float64)
    rng = batch_generator_for(seeds)
    if task.state is not None:
        engine = BatchedBinomialLeapEngine.from_particle_snapshots(
            task.state, task.params, seeds=seeds, thetas=thetas, rng=rng)
    else:
        engine = BatchedBinomialLeapEngine(
            task.params, seeds, thetas=thetas, start_day=task.start_day,
            rng=rng, **dict(task.engine_options))
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


def _dispatch_with_retry(executor: Executor, task_list: Sequence[ShardTask],
                         retry: RetryPolicy,
                         on_failure: Callable[[ShardFailure], None] | None
                         ) -> list[ShardResult]:
    """Retrying dispatch: re-execute failed shards until the budget runs out.

    Attempt ``k`` waits the policy's deterministic backoff, dispatches the
    still-pending shards via ``map_each`` (failure-isolating, per-shard
    timeout), validates every echoed result, and records a
    :class:`ShardFailure` per miss.  With ``fallback_serial`` the final
    attempt runs in-process — the degradation path when the pool itself
    died.  Bit-identical to a fault-free run: shard outputs are pure
    functions of the task payload.
    """
    ordered: list[ShardResult | None] = [None] * len(task_list)
    failures: list[ShardFailure] = []
    pending = list(range(len(task_list)))
    for attempt in range(1, retry.max_attempts + 1):
        wait = retry.backoff_for(attempt)
        if wait > 0.0:
            time.sleep(wait)
        batch = [task_list[i] for i in pending]
        serial = (retry.fallback_serial and attempt == retry.max_attempts
                  and attempt > 1)
        if serial:
            outcomes = []
            for task in batch:
                try:
                    outcomes.append(TaskOutcome(value=run_shard(task)))
                except Exception as exc:
                    outcomes.append(TaskOutcome(
                        cause=CAUSE_EXCEPTION,
                        error=f"{type(exc).__name__}: {exc}"))
        else:
            outcomes = executor.map_each(run_shard, batch,
                                         timeout=retry.timeout_seconds)
        still_pending = []
        for slot, outcome in zip(pending, outcomes):
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
        if not pending:
            break
    if pending:
        lost = [task_list[i].shard_id for i in pending]
        raise ShardRetryError(
            f"shards {lost} still failing after {retry.max_attempts} "
            f"attempts; failure history: "
            + "; ".join(f"shard {f.shard_id} attempt {f.attempt} "
                        f"[{f.cause}] {f.error}" for f in failures),
            failures)
    return ordered  # type: ignore[return-value]


def dispatch_shards(executor: Executor, tasks: Sequence[ShardTask], *,
                    retry: RetryPolicy | None = None,
                    on_failure: Callable[[ShardFailure], None] | None = None
                    ) -> list[ShardResult]:
    """Map shards across the executor; return results in ``shard_id`` order.

    Reassembly is by the echoed ``shard_id``, not list position, so an
    executor that returns results out of order still yields a correctly
    ordered ensemble; duplicated or missing shards raise.

    With a :class:`~repro.hpc.faults.RetryPolicy`, failed / timed-out /
    dropped / corrupted shards are re-executed (deterministic backoff,
    serial in-process fallback on the final attempt) and each miss is
    surfaced to ``on_failure`` as a structured
    :class:`~repro.hpc.faults.ShardFailure`; exhausting the budget raises
    :class:`~repro.hpc.faults.ShardRetryError`.  Results are bit-identical
    either way — shard outputs depend only on ``(base_seed, shard
    layout)``, never on which worker or attempt produced them.
    """
    task_list = list(tasks)
    if not task_list:
        return []
    if retry is not None:
        return _dispatch_with_retry(executor, task_list, retry, on_failure)
    ordered: list[ShardResult | None] = [None] * len(task_list)
    for result in executor.map(run_shard, task_list):
        if not 0 <= result.shard_id < len(task_list):
            raise ValueError(f"executor returned unknown shard id "
                             f"{result.shard_id}")
        if ordered[result.shard_id] is not None:
            raise ValueError(f"executor returned shard {result.shard_id} twice")
        ordered[result.shard_id] = result
    missing = [i for i, r in enumerate(ordered) if r is None]
    if missing:
        raise ValueError(f"executor dropped shards {missing}")
    return ordered  # type: ignore[return-value]


# --------------------------------------------------------------------------- #
# Group-level front door
# --------------------------------------------------------------------------- #
def build_group_specs(groups: Sequence[Sequence[int]],
                      params_list: Sequence[DiseaseParameters],
                      seeds: Sequence[int] | np.ndarray, *,
                      start_day: int | None = None,
                      state: StackedLeapState | None = None
                      ) -> list["GroupSpec"]:
    """One :class:`GroupSpec` per :func:`structural_groups` group.

    Fresh starts pass ``start_day``; restarts pass ``state``, the members'
    restart rows, gathered once per group (engine columns only).  Every
    member's theta rides in from its own params.
    """
    seeds_arr = np.asarray(seeds, dtype=np.int64)
    specs = []
    for indices in groups:
        idx = np.asarray(indices, dtype=np.int64)
        specs.append(GroupSpec(
            params=params_list[indices[0]], seeds=seeds_arr[idx],
            thetas=np.array([params_list[i].transmission_rate
                             for i in indices]),
            start_day=start_day,
            state=None if state is None else state.take(idx, params=False)))
    return specs


@dataclass(frozen=True)
class GroupSpec:
    """One structural group's simulation order (parent-side, never pickled).

    ``seeds``/``thetas`` are the group's full ordered vectors; ``start_day``
    or ``state`` selects fresh-start vs checkpoint-restart exactly as in
    :class:`ShardTask` (``state`` covers the whole group and is sliced per
    shard).
    """

    params: DiseaseParameters
    seeds: np.ndarray
    thetas: np.ndarray
    start_day: int | None = None
    state: StackedLeapState | None = None


@dataclass(frozen=True)
class GroupShards:
    """One group's shard layout and its in-order results."""

    bounds: list[tuple[int, int]]
    results: list[ShardResult]


def reassemble(groups: Sequence[Sequence[int]],
               shards: Sequence[GroupShards]
               ) -> tuple[BatchTrajectory, StackedLeapState | None]:
    """Every group's stacked shard outputs (and restart states, if the
    shards returned them) concatenated back into member order."""
    results = [r for group in shards for r in group.results]
    batch = BatchTrajectory.concatenate([r.batch for r in results])
    states = [r.state for r in results if r.state is not None]
    state = StackedLeapState.concatenate(states) if states else None
    if len(groups) > 1:
        # Rows arrive group by group; put them back in member order.
        rows = np.argsort(np.concatenate(groups))
        batch = batch.take(rows)
        state = None if state is None else state.take(rows)
    return batch, state


def simulate_groups(executor: Executor, specs: Sequence[GroupSpec], *,
                    end_day: int,
                    engine: str = BatchedBinomialLeapEngine.name,
                    engine_options: dict | None = None,
                    shard_size: int | None = None, n_shards: int | None = None,
                    return_state: bool = True,
                    retry: RetryPolicy | None = None,
                    on_failure: Callable[[ShardFailure], None] | None = None
                    ) -> list[GroupShards]:
    """Shard every group, fan the shards across the executor, reassemble.

    The workhorse behind the calibrator's batched window simulation and
    batched forecasting.  Each group is chunked by
    :func:`~repro.hpc.partition.shard_bounds` (``shard_size`` wins over
    ``n_shards``; both ``None`` → one shard per group, the serial fast
    path), all groups' shards are submitted as **one** executor map so
    workers stay busy even when group sizes are uneven, and the results
    are returned per group in member order.  ``retry``/``on_failure``
    enable fault-tolerant dispatch (see :func:`dispatch_shards`).

    Every shard runs
    :class:`~repro.seir.batch_engine.BatchedBinomialLeapEngine`; ``engine``
    only accepts that engine's name (callers that echo
    ``SMCConfig.engine`` keep working) and raises ``ValueError`` on any
    other.
    """
    if engine != BatchedBinomialLeapEngine.name:
        raise ValueError(f"unknown batch engine {engine!r}; only "
                         f"{BatchedBinomialLeapEngine.name!r} runs shards")
    return simulate_group_sets(
        executor, [specs], end_day=end_day,
        engine_options=engine_options, shard_size=shard_size,
        n_shards=n_shards, return_state=return_state, retry=retry,
        on_failures=[on_failure])[0]


def simulate_members(executor: Executor,
                     params_list: Sequence[DiseaseParameters],
                     seeds: Sequence[int] | np.ndarray, *, end_day: int,
                     start_day: int | None = None,
                     state: StackedLeapState | None = None,
                     engine_options: dict | None = None,
                     shard_size: int | None = None,
                     n_shards: int | None = None) -> list[Trajectory]:
    """One trajectory per member, simulated as a single batched dispatch.

    The front door for forecasts and the baselines: fresh starts at
    ``start_day`` or restarts from the members' ``state`` rows (as in
    :func:`build_group_specs`), returned in input order without engine
    state.
    """
    groups = structural_groups(params_list)
    specs = build_group_specs(groups, params_list, seeds,
                              start_day=start_day, state=state)
    shards = simulate_groups(executor, specs, end_day=end_day,
                             engine_options=engine_options,
                             shard_size=shard_size, n_shards=n_shards,
                             return_state=False)
    return reassemble(groups, shards)[0].trajectories()


def simulate_group_sets(executor: Executor,
                        spec_sets: Sequence[Sequence[GroupSpec]], *,
                        end_day: int,
                        engine_options: dict | None = None,
                        shard_size: int | None = None,
                        n_shards: int | None = None,
                        return_state: bool = True,
                        retry: RetryPolicy | None = None,
                        on_failures: Sequence[
                            Callable[[ShardFailure], None] | None] | None = None
                        ) -> list[list[GroupShards]]:
    """:func:`simulate_groups` over several independent spec sets at once.

    The scenario-sweep dispatch: each element of ``spec_sets`` is one
    scenario's (or world-line's) group specs, and all sets' shards are
    flattened into **one** executor map — the flattened scenario×group
    space of the scenario-tensor design — so workers interleave shards
    from every scenario instead of draining them set-by-set.  Because a
    shard's RNG stream is keyed by its seed slice alone (shard ids are
    mere dispatch positions), every returned :class:`GroupShards` is
    bit-identical to a lone ``simulate_groups`` call over its own set
    with the same ``shard_size``/``n_shards`` policy.

    ``on_failures`` optionally routes shard-failure reports per set (same
    length as ``spec_sets``); ``retry`` is shared.  Returns one
    ``list[GroupShards]`` per input set, in order.
    """
    if on_failures is not None and len(on_failures) != len(spec_sets):
        raise ValueError(
            f"on_failures has {len(on_failures)} entries for "
            f"{len(spec_sets)} spec sets")
    # Shard ids are positions in one flat task list, never RNG keys.
    tasks: list[ShardTask] = []
    task_owner: list[int] = []  # task id -> spec-set index
    plans: list[list[tuple[list[tuple[int, int]], list[int]]]] = []
    for set_index, specs in enumerate(spec_sets):
        plans.append([])
        for spec in specs:
            seeds = np.asarray(spec.seeds, dtype=np.int64)
            thetas = np.asarray(spec.thetas, dtype=np.float64)
            bounds = shard_bounds(len(seeds), shard_size=shard_size,
                                  n_shards=n_shards)
            plans[-1].append((bounds, list(range(len(tasks),
                                                 len(tasks) + len(bounds)))))
            for lo, hi in bounds:
                task_owner.append(set_index)
                tasks.append(ShardTask(
                    shard_id=len(tasks), params=spec.params,
                    seeds=seeds[lo:hi], thetas=thetas[lo:hi],
                    end_day=end_day,
                    engine_options=(dict(engine_options or {})
                                    if spec.start_day is not None else {}),
                    start_day=spec.start_day, return_state=return_state,
                    state=None if spec.state is None
                    else spec.state.take(slice(lo, hi))))

    on_failure: Callable[[ShardFailure], None] | None = None
    if on_failures is not None:
        sinks = list(on_failures)

        def on_failure(failure: ShardFailure) -> None:
            sink = sinks[task_owner[failure.shard_id]]
            if sink is not None:
                sink(failure)

    results = dispatch_shards(executor, tasks, retry=retry,
                              on_failure=on_failure)
    return [[GroupShards(bounds=bounds, results=[results[t] for t in ids])
             for bounds, ids in plan] for plan in plans]
