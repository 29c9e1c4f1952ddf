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
    propagate worker exceptions to the caller.
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
        This is the dispatch primitive the shard retry layer
        (:mod:`repro.hpc.faults`) is built on.  ``timeout`` bounds each
        task's wait in seconds where the backend supports it (process
        pools); backends that cannot interrupt a running task ignore it.

        The default implementation funnels tasks through :meth:`map` one
        at a time, which preserves semantics (not throughput) for any
        backend that does not override it.
        """
        outcomes: list[TaskOutcome] = []
        for task in tasks:
            try:
                outcomes.append(TaskOutcome(value=self.map(fn, [task])[0]))
            except Exception as exc:
                outcomes.append(TaskOutcome(
                    cause=CAUSE_EXCEPTION,
                    error=f"{type(exc).__name__}: {exc}"))
        return outcomes

    def close(self) -> None:
        """Release backend resources; idempotent.  Default: nothing to do."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialExecutor(Executor):
    """In-process, single-threaded execution (deterministic, debuggable)."""

    @property
    def workers(self) -> int:
        return 1

    def map(self, fn: Callable[[Any], Any], tasks: Iterable[Any]) -> list[Any]:
        return [fn(t) for t in tasks]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialExecutor()"


def _auto_chunksize(n_tasks: int, n_workers: int) -> int:
    """Chunk so each worker receives a handful of batches.

    Large chunks amortise pickling overhead (simulation tasks are small
    payloads but numerous); a factor-of-4 oversubscription keeps the pool
    load-balanced when task durations vary with epidemic size.
    """
    return max(1, n_tasks // (n_workers * 4))


class ProcessExecutor(Executor):
    """``concurrent.futures.ProcessPoolExecutor`` with sensible chunking.

    The mapped function and task payloads must be picklable, which is why
    the shard task (:func:`repro.hpc.sharding.run_shard`) is a module-level
    function fed with a frozen, array-backed dataclass.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self._max_workers = max_workers or os.cpu_count() or 1
        self._pool: ProcessPoolExecutor | None = None

    @property
    def workers(self) -> int:
        return self._max_workers

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self._max_workers)
        return self._pool

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

    def map(self, fn: Callable[[Any], Any], tasks: Iterable[Any]) -> list[Any]:
        task_list: Sequence[Any] = list(tasks)
        if not task_list:
            return []
        chunk = _auto_chunksize(len(task_list), self._max_workers)
        pool = self._ensure_pool()
        try:
            return list(pool.map(fn, task_list, chunksize=chunk))
        except BrokenProcessPool:
            self._discard_pool()
            raise

    def map_each(self, fn: Callable[[Any], Any], tasks: Iterable[Any],
                 timeout: float | None = None) -> list[TaskOutcome]:
        """Submit tasks individually so failures are isolated per future.

        A worker exception marks only its own task; a dead worker
        (``BrokenProcessPool``) marks the affected tasks ``pool_broken``
        and discards the cached pool so the *next* dispatch gets a fresh
        one; ``timeout`` seconds without a result marks a task
        ``timeout`` (the stuck worker keeps running — the retry layer
        re-executes the task elsewhere, which is safe because shard
        outputs are pure functions of their payload).
        """
        task_list: Sequence[Any] = list(tasks)
        if not task_list:
            return []
        try:
            pool = self._ensure_pool()
            futures = [pool.submit(fn, task) for task in task_list]
        except BrokenProcessPool as exc:
            self._discard_pool()
            return [TaskOutcome(cause=CAUSE_POOL_BROKEN,
                                error=f"submit failed: {exc}")
                    for _ in task_list]
        outcomes: list[TaskOutcome] = []
        broken = False
        for future in futures:
            try:
                outcomes.append(TaskOutcome(value=future.result(timeout=timeout)))
            except FuturesTimeoutError:
                future.cancel()
                outcomes.append(TaskOutcome(
                    cause=CAUSE_TIMEOUT,
                    error=f"no result within {timeout}s"))
            except BrokenProcessPool as exc:
                broken = True
                outcomes.append(TaskOutcome(
                    cause=CAUSE_POOL_BROKEN,
                    error=f"{type(exc).__name__}: {exc}"))
            except Exception as exc:
                outcomes.append(TaskOutcome(
                    cause=CAUSE_EXCEPTION,
                    error=f"{type(exc).__name__}: {exc}"))
        if broken:
            self._discard_pool()
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
