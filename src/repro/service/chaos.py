"""Deterministic fault injection for the service layer.

PR 7's :mod:`repro.hpc.faults` chaos harness tears individual *shard
dispatches*; this module raises the blast radius one level to the
supervision loop's units of work:

* :class:`ChaosCalibrator` — a transparent proxy around a
  :class:`~repro.core.smc.SequentialCalibrator` that injects scripted (or
  seeded) faults into :meth:`step_window` calls, keyed by
  ``(window_index, attempt)`` where *attempt* counts the calls the
  supervisor has made for that window.  ``crash`` raises the same
  :class:`~repro.hpc.faults.ChaosInjectedError` the shard harness uses;
  ``delay`` stalls the step (through an injectable ``sleep``, so tests
  can drive a fake clock) and then succeeds — the deadline-miss path.
* :func:`tear_artifact` — truncates a sealed artifact's payload in place,
  simulating the torn state a mid-write crash would leave if publication
  were not atomic, so tests can assert readers route around it.

Seeded plans draw on their own registered ancillary purpose
(``service_chaos``), so service-level chaos can never alias the shard
harness's draws, let alone any simulation stream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..core.smc import SequentialCalibrator, SimulatedWindow, WindowResult
from ..core.window import TimeWindow
from ..data.sources import ObservationSet
from ..hpc.faults import ChaosInjectedError
from ..seir.seeding import SeedSequenceBank, register_ancillary_purpose
from .artifacts import _FORECAST_NAME, ArtifactStore

__all__ = ["WindowFault", "ServiceFaultPlan", "ChaosCalibrator",
           "tear_artifact", "WINDOW_FAULT_KINDS"]

_PURPOSE_SERVICE_CHAOS = register_ancillary_purpose(
    "service_chaos", 41,
    description="seeded service-level fault-plan draws (window steps)")

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
    :class:`~repro.hpc.faults.FaultPlan` one level up.

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
