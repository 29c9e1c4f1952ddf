"""Unit tests for execution backends."""

import os

import pytest

from repro.hpc import ProcessExecutor, SerialExecutor, make_executor
from repro.hpc.executor import (CAUSE_DROPPED, CAUSE_EXCEPTION,
                                CAUSE_POOL_BROKEN, EXECUTOR_SPECS, Executor)


def square(x):
    return x * x


def fail_on_three(x):
    if x == 3:
        raise RuntimeError("boom")
    return x


def die_on_three(x):
    """Kill the worker process outright (simulates OOM-kill / preemption)."""
    if x == 3:
        os._exit(1)
    return x


class TestSerialExecutor:
    def test_map_order(self):
        ex = SerialExecutor()
        assert ex.map(square, range(5)) == [0, 1, 4, 9, 16]
        assert ex.workers == 1

    def test_exception_propagates(self):
        with pytest.raises(RuntimeError, match="boom"):
            SerialExecutor().map(fail_on_three, [1, 2, 3])

    def test_empty(self):
        assert SerialExecutor().map(square, []) == []

    def test_context_manager(self):
        with SerialExecutor() as ex:
            assert ex.map(square, [2]) == [4]


class MapOnlyExecutor(Executor):
    """A backend that implements ``map`` alone and records every call."""

    def __init__(self, drop_last=False, broken=False):
        self.calls = []
        self.drop_last = drop_last
        self.broken = broken

    @property
    def workers(self):
        return 2

    def map(self, fn, tasks):
        task_list = list(tasks)
        self.calls.append(task_list)
        if self.broken:
            raise OSError("pool gone")
        out = [fn(t) for t in task_list]
        return out[:-1] if self.drop_last else out


class TestDefaultMapEach:
    """``Executor.map_each`` for backends that only override ``map``."""

    def test_one_map_call_carries_every_task(self):
        ex = MapOnlyExecutor()
        out = ex.map_each(fail_on_three, [1, 2, 3, 4])
        assert ex.calls == [[1, 2, 3, 4]]
        assert [o.ok for o in out] == [True, True, False, True]
        assert out[2].cause == CAUSE_EXCEPTION
        assert out[2].error == "RuntimeError: boom"
        assert [o.value for o in out] == [1, 2, None, 4]

    def test_wrong_result_count_drops_every_task(self):
        out = MapOnlyExecutor(drop_last=True).map_each(square, [1, 2, 3])
        assert [o.cause for o in out] == [CAUSE_DROPPED] * 3

    def test_raising_map_fails_every_task(self):
        out = MapOnlyExecutor(broken=True).map_each(square, [1, 2])
        assert [(o.cause, o.error) for o in out] == \
            [(CAUSE_EXCEPTION, "OSError: pool gone")] * 2

    def test_wrapped_task_pickles_for_pools(self):
        with ProcessExecutor(max_workers=2) as ex:
            out = Executor.map_each(ex, fail_on_three, [1, 3])
        assert out[0].value == 1 and out[1].cause == CAUSE_EXCEPTION


class TestProcessExecutor:
    def test_map_order_preserved(self):
        with ProcessExecutor(max_workers=2) as ex:
            assert ex.map(square, range(20)) == [x * x for x in range(20)]

    def test_exception_propagates(self):
        with ProcessExecutor(max_workers=2) as ex:
            with pytest.raises(RuntimeError, match="boom"):
                ex.map(fail_on_three, [1, 2, 3, 4])

    def test_pool_reused_across_maps(self):
        with ProcessExecutor(max_workers=2) as ex:
            ex.map(square, [1])
            pool_a = ex._pool
            ex.map(square, [2])
            assert ex._pool is pool_a

    def test_close_idempotent(self):
        ex = ProcessExecutor(max_workers=1)
        ex.map(square, [1])
        ex.close()
        ex.close()

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ProcessExecutor(max_workers=0)

    def test_empty(self):
        with ProcessExecutor(max_workers=1) as ex:
            assert ex.map(square, []) == []


class TestProcessExecutorFaults:
    """Failure semantics: broken pools must be discarded, not cached."""

    def test_broken_pool_rebuilt_on_next_map(self):
        """Regression: a BrokenProcessPool used to stay cached in _pool,
        poisoning every later map on the same executor."""
        with ProcessExecutor(max_workers=1) as ex:
            from concurrent.futures.process import BrokenProcessPool
            with pytest.raises(BrokenProcessPool):
                ex.map(die_on_three, [1, 2, 3, 4])
            assert ex._pool is None
            assert ex.map(square, [5, 6]) == [25, 36]

    def test_map_each_isolates_worker_exception(self):
        with ProcessExecutor(max_workers=1) as ex:
            out = ex.map_each(fail_on_three, [1, 2, 3, 4])
        assert [o.ok for o in out] == [True, True, False, True]
        assert out[2].cause == CAUSE_EXCEPTION
        assert "boom" in out[2].error
        assert [o.value for o in out] == [1, 2, None, 4]

    def test_map_each_surfaces_pool_loss_and_recovers(self):
        with ProcessExecutor(max_workers=1) as ex:
            out = ex.map_each(die_on_three, [1, 2, 3, 4])
            assert any(o.cause == CAUSE_POOL_BROKEN for o in out)
            assert ex._pool is None
            # The executor stays usable: the pool is lazily rebuilt.
            again = ex.map_each(square, [3])
        assert again[0].ok and again[0].value == 9


class TestFactories:
    def test_make_executor(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("process", max_workers=1),
                          ProcessExecutor)
        assert EXECUTOR_SPECS == ("serial", "process")

    def test_make_executor_unknown(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("gpu")
