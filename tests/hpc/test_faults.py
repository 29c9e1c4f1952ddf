"""Unit tests for the fault-tolerance layer (repro/hpc/faults.py) and the
shard chaos harness (repro/testing/chaos.py).

Covers the retry policy, deterministic fault plans, the chaos-injection
executor wrapper, failure-isolating ``map_each`` semantics, and retried
shard dispatch — including the acceptance property that a retried run is
bit-identical to a fault-free one.
"""

import numpy as np
import pytest

from repro.hpc import (ProcessExecutor, RetryPolicy, SerialExecutor,
                       ShardRetryError, ShardTask, TaskOutcome,
                       dispatch_shards)
from repro.hpc.executor import (CAUSE_DROPPED, CAUSE_EXCEPTION, CAUSE_TIMEOUT)
from repro.hpc.faults import CAUSE_CORRUPT
from repro.hpc.sharding import _result_defect, run_shard
from repro.seir import DiseaseParameters
from repro.testing.chaos import (FAULT_KINDS, ChaosExecutor, CorruptedResult,
                                 Fault, FaultPlan)


def double(x):
    return x * 2


def sleepy(x):
    import time
    time.sleep(0.5)
    return x


def make_tasks(n_shards=3, members=4, end_day=6):
    """Small fresh-start shard tasks (millisecond simulations)."""
    params = DiseaseParameters(population=5_000, initial_exposed=20)
    tasks = []
    for s in range(n_shards):
        seeds = np.arange(100 * s, 100 * s + members, dtype=np.int64)
        tasks.append(ShardTask(
            shard_id=s, params=params, seeds=seeds,
            thetas=np.full(members, 0.3), end_day=end_day,
            engine_options={"steps_per_day": 2}, start_day=0))
    return tasks


def assert_shard_results_identical(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.shard_id == rb.shard_id
        assert np.array_equal(ra.batch.infections, rb.batch.infections)
        assert np.array_equal(ra.state.counts, rb.state.counts)
        assert np.array_equal(ra.state.seeds, rb.state.seeds)


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.timeout_seconds is None
        assert policy.fallback_serial

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="timeout_seconds"):
            RetryPolicy(timeout_seconds=0.0)
        with pytest.raises(ValueError, match="backoff_seconds"):
            RetryPolicy(backoff_seconds=-1.0)

    def test_linear_deterministic_backoff(self):
        policy = RetryPolicy(backoff_seconds=0.5)
        assert policy.backoff_for(1) == 0.0
        assert policy.backoff_for(2) == 0.5
        assert policy.backoff_for(3) == 1.0


class TestFaultPlan:
    def test_fault_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault(kind="meteor", shard=0)
        with pytest.raises(ValueError, match="attempt"):
            Fault(kind="crash", shard=0, attempt=0)
        with pytest.raises(ValueError, match="delay_seconds"):
            Fault(kind="delay", shard=0, delay_seconds=-1.0)

    def test_scripted_lookup(self):
        plan = FaultPlan.scripted(Fault(kind="crash", shard=1, attempt=2))
        assert plan.fault_for(1, 2).kind == "crash"
        assert plan.fault_for(1, 1) is None
        assert plan.fault_for(0, 2) is None

    def test_seeded_reproducible(self):
        kwargs = dict(n_shards=40, rates={"crash": 0.2, "drop": 0.1},
                      max_attempts=2)
        a = FaultPlan.seeded(99, **kwargs)
        b = FaultPlan.seeded(99, **kwargs)
        assert a == b
        assert len(a.faults) > 0
        c = FaultPlan.seeded(100, **kwargs)
        assert a != c

    def test_seeded_draws_stay_in_bounds(self):
        plan = FaultPlan.seeded(7, n_shards=10,
                                rates={"crash": 0.3, "corrupt": 0.3},
                                max_attempts=3)
        for fault in plan.faults:
            assert 0 <= fault.shard < 10
            assert 1 <= fault.attempt <= 3
            assert fault.kind in ("crash", "corrupt")

    def test_seeded_validation(self):
        with pytest.raises(ValueError, match="n_shards"):
            FaultPlan.seeded(1, n_shards=0, rates={})
        with pytest.raises(ValueError, match="unknown fault kinds"):
            FaultPlan.seeded(1, n_shards=2, rates={"gremlin": 0.5})
        with pytest.raises(ValueError, match="sum"):
            FaultPlan.seeded(1, n_shards=2, rates={"crash": 0.8, "drop": 0.6})

    def test_all_kinds_registered(self):
        assert set(FAULT_KINDS) == {"crash", "hard_exit", "timeout", "delay",
                                    "drop", "corrupt"}


class TestChaosExecutorMap:
    """``map`` is a strict adapter over the ``map_each`` fault model."""

    def test_crash_propagates_on_strict_path(self):
        chaos = ChaosExecutor(SerialExecutor(),
                              FaultPlan.scripted(Fault(kind="crash", shard=1)))
        with pytest.raises(RuntimeError,
                           match=r"task 1 failed \[worker_exception\] "
                                 r"ChaosInjectedError: chaos: injected"):
            chaos.map(double, [10, 11, 12])
        assert [f.shard for f in chaos.injected] == [1]

    def test_drop_removes_result(self):
        chaos = ChaosExecutor(SerialExecutor(),
                              FaultPlan.scripted(Fault(kind="drop", shard=1)))
        with pytest.raises(RuntimeError,
                           match=r"task 1 failed \[dropped\] chaos injected"):
            chaos.map(double, [10, 11, 12])

    def test_corrupt_wraps_result(self):
        chaos = ChaosExecutor(
            SerialExecutor(),
            FaultPlan.scripted(Fault(kind="corrupt", shard=0)))
        out = chaos.map(double, [10, 11])
        assert out == [CorruptedResult(original=20), 22]

    def test_delay_still_succeeds(self):
        chaos = ChaosExecutor(
            SerialExecutor(),
            FaultPlan.scripted(Fault(kind="delay", shard=0,
                                     delay_seconds=0.01)))
        assert chaos.map(double, [5]) == [10]

    def test_attempt_counting_and_reset(self):
        plan = FaultPlan.scripted(Fault(kind="drop", shard=0, attempt=1))
        chaos = ChaosExecutor(SerialExecutor(), plan)
        with pytest.raises(RuntimeError):            # attempt 1: injected
            chaos.map(double, [1])
        assert chaos.map(double, [1]) == [2]         # attempt 2: clean
        assert [f.kind for f in chaos.injected] == ["drop"]
        chaos.reset()
        with pytest.raises(RuntimeError):            # counts forgotten
            chaos.map(double, [1])
        assert chaos.workers == 1


class TestChaosExecutorMapEach:
    def test_fault_kinds_surface_as_outcomes(self):
        plan = FaultPlan.scripted(Fault(kind="timeout", shard=0),
                                  Fault(kind="drop", shard=1),
                                  Fault(kind="crash", shard=2),
                                  Fault(kind="corrupt", shard=3))
        chaos = ChaosExecutor(SerialExecutor(), plan)
        out = chaos.map_each(double, [0, 1, 2, 3, 4])
        assert [o.cause for o in out] == [
            CAUSE_TIMEOUT, CAUSE_DROPPED, CAUSE_EXCEPTION, None, None]
        assert out[3].value == CorruptedResult(original=6)
        assert out[4].value == 8
        assert len(chaos.injected) == 4

    def test_tasks_keyed_by_shard_id_attribute(self):
        tasks = make_tasks(n_shards=2, members=2, end_day=3)
        plan = FaultPlan.scripted(Fault(kind="drop", shard=1))
        chaos = ChaosExecutor(SerialExecutor(), plan)
        out = chaos.map_each(run_shard, tasks)
        assert out[0].ok and out[0].value.shard_id == 0
        assert out[1].cause == CAUSE_DROPPED


class TestMapEachSemantics:
    def test_serial_isolates_exceptions(self):
        def boom(x):
            if x == 2:
                raise RuntimeError("boom")
            return x

        out = SerialExecutor().map_each(boom, [1, 2, 3])
        assert [o.ok for o in out] == [True, False, True]
        assert out[1].cause == CAUSE_EXCEPTION
        assert "boom" in out[1].error
        assert [o.value for o in out] == [1, None, 3]

    def test_process_timeout_surfaces(self):
        with ProcessExecutor(max_workers=1) as ex:
            out = ex.map_each(sleepy, [1], timeout=0.05)
        assert out[0].cause == CAUSE_TIMEOUT

    def test_outcome_ok_property(self):
        assert TaskOutcome(value=3).ok
        assert not TaskOutcome(cause=CAUSE_TIMEOUT).ok


class TestResultValidation:
    def test_result_defects_detected(self):
        tasks = make_tasks(n_shards=2, members=3, end_day=3)
        good = run_shard(tasks[0])
        assert _result_defect(tasks[0], good) is None
        assert "not ShardResult" in _result_defect(tasks[0], CorruptedResult())
        assert "echoed shard id" in _result_defect(tasks[1], good)


class TestRetriedDispatch:
    def test_retry_is_bit_identical_to_fault_free(self):
        tasks = make_tasks()
        clean = dispatch_shards(SerialExecutor(), tasks)
        plan = FaultPlan.scripted(
            Fault(kind="crash", shard=0, attempt=1),
            Fault(kind="drop", shard=1, attempt=1),
            Fault(kind="corrupt", shard=2, attempt=1))
        chaos = ChaosExecutor(SerialExecutor(), plan)
        failures = []
        retried = dispatch_shards(chaos, tasks,
                                  retry=RetryPolicy(max_attempts=4,
                                                    fallback_serial=False),
                                  on_failure=failures.append)
        assert_shard_results_identical(clean, retried)
        causes = {(f.shard_id, f.attempt): f.cause for f in failures}
        assert causes == {(0, 1): CAUSE_EXCEPTION, (1, 1): CAUSE_DROPPED,
                          (2, 1): CAUSE_CORRUPT}

    def test_serial_fallback_rescues_final_attempt(self):
        """The last attempt runs in-process, bypassing even a fault plan
        scripted to kill every pooled attempt."""
        tasks = make_tasks(n_shards=2)
        clean = dispatch_shards(SerialExecutor(), tasks)
        plan = FaultPlan.scripted(Fault(kind="crash", shard=0, attempt=1),
                                  Fault(kind="crash", shard=0, attempt=2))
        chaos = ChaosExecutor(SerialExecutor(), plan)
        retried = dispatch_shards(chaos, tasks,
                                  retry=RetryPolicy(max_attempts=2))
        assert_shard_results_identical(clean, retried)

    def test_exhaustion_raises_with_history(self):
        tasks = make_tasks(n_shards=2)
        plan = FaultPlan.scripted(Fault(kind="drop", shard=1, attempt=1),
                                  Fault(kind="drop", shard=1, attempt=2))
        chaos = ChaosExecutor(SerialExecutor(), plan)
        with pytest.raises(ShardRetryError, match=r"shards \[1\]") as info:
            dispatch_shards(chaos, tasks,
                            retry=RetryPolicy(max_attempts=2,
                                              fallback_serial=False))
        failures = info.value.failures
        assert [(f.shard_id, f.attempt, f.cause) for f in failures] == \
            [(1, 1, CAUSE_DROPPED), (1, 2, CAUSE_DROPPED)]

    def test_single_attempt_policy_fails_fast_but_structured(self):
        tasks = make_tasks(n_shards=2)
        plan = FaultPlan.scripted(Fault(kind="crash", shard=0))
        chaos = ChaosExecutor(SerialExecutor(), plan)
        with pytest.raises(ShardRetryError):
            dispatch_shards(chaos, tasks, retry=RetryPolicy(max_attempts=1))

    def test_no_retry_policy_keeps_legacy_strict_path(self):
        """Without a policy, dispatch stays strict: the default fail-fast
        policy makes one attempt and names the shard, the cause and the
        worker's ``Type: message`` in a structured error."""
        tasks = make_tasks(n_shards=2)
        plan = FaultPlan.scripted(Fault(kind="crash", shard=0))
        chaos = ChaosExecutor(SerialExecutor(), plan)
        with pytest.raises(ShardRetryError, match=r"shards \[0\]") as info:
            dispatch_shards(chaos, tasks)
        assert "ChaosInjectedError: chaos: injected worker crash" in \
            str(info.value)
        assert [(f.shard_id, f.attempt, f.cause)
                for f in info.value.failures] == [(0, 1, CAUSE_EXCEPTION)]
        assert [f.shard for f in chaos.injected] == [0]   # no second try
