"""Execution backends for embarrassingly parallel simulation ensembles.

The paper's framework "is designed to exploit the concurrency provided by HPC
resources" (section I): every prior draw's simulation is independent, so the
ensemble step is a parallel map.  The SMC driver is written once against the
:class:`Executor` protocol; backends provide serial execution (tests,
debugging) and process pools (multi-core laptops / single cluster nodes).
numpy's binomial and multinomial samplers hold the GIL, so a thread pool
would run the kernel no faster than serial; there is no thread backend.

An mpi4py-backed executor would satisfy the same protocol via
``MPIPoolExecutor.map``.  The calibrator dispatches only shard tasks through
this protocol (:mod:`repro.hpc.sharding`).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

__all__ = ["Executor", "SerialExecutor", "ProcessExecutor", "make_executor",
           "EXECUTOR_SPECS", "TaskOutcome", "CAUSE_EXCEPTION", "CAUSE_TIMEOUT", "CAUSE_POOL_BROKEN",
           "CAUSE_DROPPED"]

# Failure causes surfaced by ``Executor.map_each`` (and reused by the retry
# layer in :mod:`repro.hpc.faults` for failures it detects itself, e.g.
# dropped or corrupted shard results).
CAUSE_EXCEPTION = "worker_exception"
CAUSE_TIMEOUT = "timeout"
CAUSE_POOL_BROKEN = "pool_broken"
CAUSE_DROPPED = "dropped"


@dataclass(frozen=True)
class TaskOutcome:
    """Result-or-failure of one task under failure-isolating dispatch.

    ``map_each`` returns one of these per task instead of raising, so a
    single crashed worker does not discard its siblings' completed work.
    ``cause is None`` means success and ``value`` holds the result;
    otherwise ``cause`` is one of the ``CAUSE_*`` constants and ``error``
    carries a human-readable detail string.
    """

    value: Any = None
    cause: str | None = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.cause is None


class Executor(ABC):
    """Minimal parallel-map protocol used by the calibration driver.

    Implementations must preserve input order in the returned list and
    propagate worker exceptions to the caller; ``map`` alone makes a
    complete backend (see :meth:`map_each`).
    """

    @abstractmethod
    def map(self, fn: Callable[[Any], Any], tasks: Iterable[Any]) -> list[Any]:
        """Apply ``fn`` to every task, returning results in task order."""

    @property
    @abstractmethod
    def workers(self) -> int:
        """Degree of parallelism (1 for serial)."""

    def map_each(self, fn: Callable[[Any], Any], tasks: Iterable[Any],
                 timeout: float | None = None) -> list[TaskOutcome]:
        """Failure-isolating map: one :class:`TaskOutcome` per task, in order.

        Unlike :meth:`map`, a failing task does not raise — it yields an
        outcome with ``cause`` set while its siblings' results survive.
        This is the one dispatch primitive of the shard layer
        (:func:`repro.hpc.sharding.dispatch_shards`).  ``timeout`` bounds
        each task's wait in seconds where the backend supports it
        (process pools); backends that cannot interrupt a running task
        ignore it.

        The default makes **one** :meth:`map` call over every task, each
        wrapped to catch its own exception, so the tasks run as parallel
        as the backend's ``map``.  A ``map`` that raises, or returns the
        wrong number of results, fails every task.
        """
        task_list = list(tasks)
        try:
            outcomes = self.map(_Isolated(fn), task_list)
        except Exception as exc:
            return [_failed(CAUSE_EXCEPTION, exc) for _ in task_list]
        if len(outcomes) != len(task_list):
            return [TaskOutcome(cause=CAUSE_DROPPED,
                                error=f"map returned {len(outcomes)} results "
                                      f"for {len(task_list)} tasks")
                    for _ in task_list]
        return outcomes

    def close(self) -> None:
        """Release backend resources; idempotent.  Default: nothing to do."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _failed(cause: str, exc: BaseException) -> TaskOutcome:
    return TaskOutcome(cause=cause, error=f"{type(exc).__name__}: {exc}")


@dataclass(frozen=True)
class _Isolated:
    """``fn`` with its exception caught into the task's :class:`TaskOutcome`.

    Module-level and frozen so process pools can pickle it.
    """

    fn: Callable[[Any], Any]

    def __call__(self, task: Any) -> TaskOutcome:
        try:
            return TaskOutcome(value=self.fn(task))
        except Exception as exc:
            return _failed(CAUSE_EXCEPTION, exc)


class SerialExecutor(Executor):
    """In-process, single-threaded execution (deterministic, debuggable)."""

    @property
    def workers(self) -> int:
        return 1

    def map(self, fn: Callable[[Any], Any], tasks: Iterable[Any]) -> list[Any]:
        return [fn(t) for t in tasks]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialExecutor()"


class ProcessExecutor(Executor):
    """``concurrent.futures.ProcessPoolExecutor``, one future per task.

    Shard dispatch sends about one task per worker, so tasks are submitted
    one by one rather than chunked.  The mapped function and task payloads
    must be picklable, which is why the shard task
    (:func:`repro.hpc.sharding.run_shard`) is a module-level function fed
    with a frozen, array-backed dataclass.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self._max_workers = max_workers or os.cpu_count() or 1
        self._pool: ProcessPoolExecutor | None = None

    @property
    def workers(self) -> int:
        return self._max_workers

    def _discard_pool(self) -> None:
        """Drop a (possibly broken) cached pool; the next map rebuilds it.

        A ``BrokenProcessPool`` poisons the ``ProcessPoolExecutor``
        permanently — every later submit raises — so caching it would make
        this executor unusable for the rest of the run.  ``wait=False``
        because a broken pool has no live workers to join.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _settle(self, fn: Callable[[Any], Any], tasks: Iterable[Any],
                timeout: float | None) -> list[tuple[Any, Exception | None]]:
        """Submit every task, then wait for each in order.

        Returns ``(value, None)`` or ``(None, exception)`` per task.  A
        ``BrokenProcessPool`` (a dead worker) discards the cached pool so
        the *next* dispatch gets a fresh one; a task still running after
        ``timeout`` seconds gets a ``TimeoutError`` and keeps running.
        """
        task_list: Sequence[Any] = list(tasks)
        if not task_list:
            return []
        try:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self._max_workers)
            pool = self._pool
            futures = [pool.submit(fn, task) for task in task_list]
        except BrokenProcessPool as exc:
            self._discard_pool()
            return [(None, exc)] * len(task_list)
        settled: list[tuple[Any, Exception | None]] = []
        for future in futures:
            try:
                settled.append((future.result(timeout=timeout), None))
            except FuturesTimeoutError as exc:
                future.cancel()
                settled.append((None, exc))
            except Exception as exc:
                settled.append((None, exc))
        if any(isinstance(exc, BrokenProcessPool) for _, exc in settled):
            self._discard_pool()
        return settled

    def map(self, fn: Callable[[Any], Any], tasks: Iterable[Any]) -> list[Any]:
        """Results in task order; re-raises the first task's exception
        (``BrokenProcessPool`` when a worker died)."""
        settled = self._settle(fn, tasks, None)
        for _, exc in settled:
            if exc is not None:
                raise exc
        return [value for value, _ in settled]

    def map_each(self, fn: Callable[[Any], Any], tasks: Iterable[Any],
                 timeout: float | None = None) -> list[TaskOutcome]:
        """Failures isolated per future: a worker exception marks only its
        own task, a dead worker marks the affected tasks ``pool_broken``,
        and ``timeout`` seconds without a result marks a task ``timeout``
        (the stuck worker keeps running — the retry layer re-executes the
        task elsewhere, which is safe because shard outputs are pure
        functions of their payload)."""
        outcomes: list[TaskOutcome] = []
        for value, exc in self._settle(fn, tasks, timeout):
            if exc is None:
                outcomes.append(TaskOutcome(value=value))
            elif isinstance(exc, FuturesTimeoutError):
                outcomes.append(TaskOutcome(
                    cause=CAUSE_TIMEOUT, error=f"no result within {timeout}s"))
            elif isinstance(exc, BrokenProcessPool):
                outcomes.append(_failed(CAUSE_POOL_BROKEN, exc))
            else:
                outcomes.append(_failed(CAUSE_EXCEPTION, exc))
        return outcomes

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessExecutor(max_workers={self._max_workers})"


#: The config strings :func:`make_executor` accepts.
EXECUTOR_SPECS: tuple[str, ...] = ("serial", "process")


def make_executor(spec: str, max_workers: int | None = None) -> Executor:
    """Build an executor from a config string (one of :data:`EXECUTOR_SPECS`)."""
    if spec == "serial":
        return SerialExecutor()
    if spec == "process":
        return ProcessExecutor(max_workers=max_workers)
    raise ValueError(f"unknown executor spec {spec!r}; "
                     f"expected one of {list(EXECUTOR_SPECS)}")
