"""Deterministic fault injection: the shard and service chaos harnesses.

At paper scale (25,000 x 20 over many worker-hours) preempted workers,
OOM kills and node failures are the normal case.  The production layers
that survive them — :func:`~repro.hpc.sharding.dispatch_shards`' retry
loop under a :class:`~repro.hpc.faults.RetryPolicy`, and the
:class:`~repro.service.supervisor.CalibrationService` restart budget —
are proved by two harnesses that script those failures:

* **Shard dispatch** — :class:`ChaosExecutor` + :class:`FaultPlan`, a
  wrapper around any :class:`~repro.hpc.executor.Executor` that crashes,
  delays, drops, or corrupts scripted (or seeded) ``(shard, attempt)``
  dispatches, so the chaos suite and ``bench_faults.py`` can assert
  bit-identical convergence under faults.
* **Service window steps** — :class:`ChaosCalibrator` +
  :class:`ServiceFaultPlan`, a proxy around a
  :class:`~repro.core.smc.SequentialCalibrator` that crashes or stalls
  scripted ``(window, attempt)`` calls to ``step_window``, plus
  :func:`tear_artifact`, which leaves a sealed artifact in the torn state
  a non-atomic writer would.

Seeded plans draw through a :class:`~repro.seir.seeding.SeedSequenceBank`
on their own registered ancillary purposes (``chaos_faults``, tag 40, and
``service_chaos``, tag 41), so chaos randomness can never alias each
other's draws or any simulation or resampling stream.

No production module imports this one; it ships in :mod:`repro.testing`
so downstream suites can drive the same faults.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from ..core.smc import SequentialCalibrator, SimulatedWindow, WindowResult
from ..core.window import TimeWindow
from ..data.sources import ObservationSet
from ..hpc.executor import CAUSE_DROPPED, CAUSE_TIMEOUT, Executor, TaskOutcome
from ..seir.seeding import SeedSequenceBank, register_ancillary_purpose
from ..service.artifacts import _FORECAST_NAME, ArtifactStore

__all__ = ["Fault", "FaultPlan", "FAULT_KINDS", "ChaosExecutor",
           "ChaosInjectedError", "CorruptedResult",
           "WindowFault", "ServiceFaultPlan", "ChaosCalibrator",
           "tear_artifact", "WINDOW_FAULT_KINDS"]

_PURPOSE_CHAOS = register_ancillary_purpose(
    "chaos_faults", 40, description="seeded fault-plan draws (chaos testing)")
_PURPOSE_SERVICE_CHAOS = register_ancillary_purpose(
    "service_chaos", 41,
    description="seeded service-level fault-plan draws (window steps)")


class ChaosInjectedError(RuntimeError):
    """The deterministic exception raised by injected ``crash`` faults."""


# --------------------------------------------------------------------------- #
# Shard dispatch faults
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


# --------------------------------------------------------------------------- #
# Service window-step faults
# --------------------------------------------------------------------------- #
#: Injectable window-step fault kinds: ``crash`` raises before the step
#: runs, ``delay`` stalls ``delay_seconds`` and then runs it normally.
WINDOW_FAULT_KINDS = ("crash", "delay")


@dataclass(frozen=True)
class WindowFault:
    """One scripted window-step fault at ``(window, attempt)``."""

    kind: str
    window: int
    attempt: int = 1
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in WINDOW_FAULT_KINDS:
            raise ValueError(f"unknown window fault kind {self.kind!r}; "
                             f"expected one of {WINDOW_FAULT_KINDS}")
        if self.window < 0:
            raise ValueError("window must be >= 0")
        if self.attempt < 1:
            raise ValueError("attempt is 1-based and must be >= 1")
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be >= 0")


@dataclass(frozen=True)
class ServiceFaultPlan:
    """A deterministic set of window-step faults, mirroring
    :class:`FaultPlan` one level up.

    Scripted plans target exact ``(window, attempt)`` cells; seeded plans
    materialise at construction from the ``service_chaos`` ancillary
    stream, so the same ``(base_seed, n_windows, rates)`` always injects
    the same faults.
    """

    faults: tuple[WindowFault, ...] = ()

    def fault_for(self, window: int, attempt: int) -> WindowFault | None:
        for fault in self.faults:
            if fault.window == window and fault.attempt == attempt:
                return fault
        return None

    @classmethod
    def scripted(cls, *faults: WindowFault) -> "ServiceFaultPlan":
        return cls(faults=tuple(faults))

    @classmethod
    def seeded(cls, base_seed: int, *, n_windows: int,
               rates: Mapping[str, float], max_attempts: int = 1,
               delay_seconds: float = 0.01) -> "ServiceFaultPlan":
        """Draw a reproducible plan: each ``(window, attempt)`` cell gets
        at most one fault, kind ``k`` with probability ``rates[k]``.
        Draw order is window-major then attempt, one uniform per cell.
        """
        if n_windows < 1:
            raise ValueError("n_windows must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        unknown = set(rates) - set(WINDOW_FAULT_KINDS)
        if unknown:
            raise ValueError(f"unknown fault kinds in rates: {sorted(unknown)}")
        kinds = [(kind, float(rates[kind])) for kind in WINDOW_FAULT_KINDS
                 if kind in rates]
        if sum(rate for _, rate in kinds) > 1.0:
            raise ValueError("fault rates must sum to <= 1")
        rng = SeedSequenceBank(base_seed).ancillary_generator(
            _PURPOSE_SERVICE_CHAOS)
        faults = []
        for window in range(n_windows):
            for attempt in range(1, max_attempts + 1):
                u = float(rng.random())
                cum = 0.0
                for kind, rate in kinds:
                    cum += rate
                    if u < cum:
                        faults.append(WindowFault(
                            kind=kind, window=window, attempt=attempt,
                            delay_seconds=delay_seconds))
                        break
        return cls(faults=tuple(faults))


class ChaosCalibrator:
    """Fault-injecting proxy around a sequential calibrator.

    Forwards everything to the wrapped calibrator except
    :meth:`step_window`, which consults the plan first (the simulation of
    a window's cloud ahead of its step, ``simulate_window``, is forwarded
    unfaulted).  The attempt
    number is the per-window call count, which under
    :class:`~repro.service.supervisor.CalibrationService` is exactly the
    supervisor's restart attempt — so plans address "window 1, second
    try" without the harness reaching into supervisor internals.  Because
    ``step_window`` is deterministic and side-effect-free until it
    returns, a crashed-then-retried step leaves the surviving run
    bit-identical to an unfaulted one.
    """

    def __init__(self, calibrator: SequentialCalibrator,
                 plan: ServiceFaultPlan, *,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self._inner = calibrator
        self._plan = plan
        self._sleep = sleep
        self._calls: dict[int, int] = {}

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    @property
    def injected(self) -> dict[int, int]:
        """Per-window step-call counts (1 = no restarts were forced)."""
        return dict(self._calls)

    def step_window(self, index: int, window: TimeWindow,
                    observations: ObservationSet,
                    posterior: Any = None, *,
                    n_proposals: int | None = None,
                    resample_size: int | None = None,
                    cloud: SimulatedWindow | None = None) -> WindowResult:
        attempt = self._calls.get(index, 0) + 1
        self._calls[index] = attempt
        fault = self._plan.fault_for(index, attempt)
        if fault is not None:
            if fault.kind == "crash":
                raise ChaosInjectedError(
                    f"chaos: injected window-step crash "
                    f"(window {index}, attempt {attempt})")
            self._sleep(fault.delay_seconds)
        return self._inner.step_window(index, window, observations,
                                       posterior, n_proposals=n_proposals,
                                       resample_size=resample_size,
                                       cloud=cloud)


def tear_artifact(store: ArtifactStore, window_index: int) -> None:
    """Corrupt a sealed artifact's payload in place (keeping its seal).

    Truncates ``forecast.json`` to half its bytes — the torn state a
    non-atomic writer crashing mid-write would leave.  Used by the
    degradation tests to prove readers detect the hash mismatch and
    serve the previous sealed window instead.
    """
    path = store.window_dir(window_index) / _FORECAST_NAME
    data = path.read_bytes()
    path.write_bytes(data[:max(1, len(data) // 2)])
