"""The window supervision loop: step, survive, publish, degrade.

:class:`CalibrationService` drives a
:class:`~repro.core.smc.SequentialCalibrator` one window at a time as
observations become available in an
:class:`~repro.service.ingest.ObservationBuffer`.  Each ready window runs
under supervision:

* **deadline** — the whole window turn (the step, the next window's
  cloud and the publish) is timed against
  ``ServiceConfig.restart.timeout_seconds`` (the per-window deadline,
  reusing :class:`~repro.hpc.faults.RetryPolicy` semantics); a miss is a
  degradation event, not a failure — the result is kept, the operator is
  told the service is falling behind.
* **bounded restart** — a window step (or the next window's cloud) that
  raises is retried up to ``restart.max_attempts`` times with the policy's
  deterministic linear backoff.  Re-running :meth:`~repro.core.smc.\
SequentialCalibrator.step_window` is provably safe: all of its randomness
  is keyed by ``(base_seed, window index)``, never by wall clock or
  attempt.
* **sticky failure** — once the restart budget is exhausted the window is
  marked failed and the service stops advancing (state is preserved;
  reads keep serving the last sealed artifact, tagged stale).  A daemon
  restart gets a fresh budget.
* **crash recovery** — :meth:`CalibrationService.resume` restores the
  newest sealed checkpoint window
  (:meth:`~repro.core.smc.SequentialCalibrator.restore_latest_window`),
  re-derives the size-policy plans from it alone, and re-publishes its
  forecast artifact if the crash landed between checkpoint seal and
  artifact seal — so a kill at *any* point resumes to bit-identical
  artifacts.

Every successful window is durably checkpointed first
(:meth:`~repro.core.smc.SequentialCalibrator.persist_window`), then its
forecast is published atomically through
:class:`~repro.service.artifacts.ArtifactStore`.  The checkpoint store is
the source of truth; artifacts are a deterministic function of it.

The forecast of every window but the last is the next window's proposal
cloud: when window *k* seals, the service proposes and simulates window
*k+1*'s jittered cloud through the calibrator's own dispatch path
(:meth:`~repro.core.smc.SequentialCalibrator.simulate_window`), publishes
its ribbons, and keeps it; the tick that brings window *k+1*'s data only
weighs it.  The kept cloud is tied to the posterior object it was
proposed from (which fixes its window and, through the deterministic size
plan, its size), and a fresh process simulates it at the tick instead —
the same cloud either way.  The last window's forecast restarts its
posterior with theta held
(:func:`~repro.inference.forecast.forecast_from_posterior`).

Time discipline: the supervisor measures durations with an injectable
*monotonic* clock and never reads wall-clock time, so the service layer
stays inside the repo's determinism lint without allowlisting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..core.particle import ParticleEnsemble
from ..core.posterior import check_quantiles
from ..core.smc import SequentialCalibrator, SimulatedWindow, WindowResult
from ..core.window import TimeWindow
from ..data.sources import CASES, CHANNELS, ObservationSet
from ..hpc.checkpoint_io import CheckpointStore
from ..hpc.faults import RetryPolicy
from ..inference.forecast import forecast_from_cloud, forecast_from_posterior
from .artifacts import ArtifactRead, ArtifactStore
from .ingest import ObservationBuffer

__all__ = ["CalibrationService", "ServiceConfig", "ServiceEvent",
           "EVENT_KINDS"]

#: Event kinds emitted by the supervisor, in rough lifecycle order.
EVENT_KINDS = ("resumed", "republished", "window_restart", "window_failed",
               "deadline_missed", "window_complete", "published", "pruned")


@dataclass(frozen=True)
class ServiceConfig:
    """Supervision and publication knobs for the calibration service.

    ``restart`` carries the whole supervision budget in
    :class:`~repro.hpc.faults.RetryPolicy` terms: ``max_attempts`` bounds
    window restarts, ``backoff_for`` spaces them deterministically, and
    ``timeout_seconds`` doubles as the per-window deadline (a soft one —
    see :class:`CalibrationService`).  The forecast fields pin everything
    that keys the published artifact bytes, so two services with equal
    configs publish byte-identical artifacts from equal calibrations.

    ``horizon_days`` is the published horizon.  Before the last window it
    is read off the next window's proposal cloud, continued past that
    window's end on the forecast stream when the horizon is longer; after
    the last window it is a theta-held restart of the posterior.
    ``forecast_seed`` seeds those two continuations only.
    """

    restart: RetryPolicy = field(default_factory=RetryPolicy)
    horizon_days: int = 14
    forecast_seed: int = 0
    forecast_channels: tuple[str, ...] = ("cases",)
    quantiles: tuple[float, ...] = (0.05, 0.25, 0.5, 0.75, 0.95)
    keep_last: int | None = None

    def __post_init__(self) -> None:
        if self.horizon_days < 1:
            raise ValueError("horizon_days must be >= 1")
        if not self.forecast_channels:
            raise ValueError("at least one forecast channel is required")
        unknown = sorted(set(self.forecast_channels) - CHANNELS)
        if unknown:
            raise ValueError(f"unknown forecast channel(s) {unknown}; "
                             f"expected some of {sorted(CHANNELS)}")
        if not self.quantiles:
            raise ValueError("at least one forecast quantile is required")
        check_quantiles(self.quantiles)
        if self.keep_last is not None and self.keep_last < 1:
            raise ValueError("keep_last must be >= 1 when set")


@dataclass(frozen=True)
class ServiceEvent:
    """One supervision-loop occurrence, for logs and tests.

    ``kind`` is one of :data:`EVENT_KINDS`; ``window_index`` is the window
    it concerns; ``detail`` is a human-readable specifics line.
    """

    kind: str
    window_index: int
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}; "
                             f"expected one of {EVENT_KINDS}")

    def render(self) -> str:
        return f"[{self.kind}] window {self.window_index}: {self.detail}"


def _jsonify(value: Any) -> Any:
    """Recursively coerce numpy scalars/arrays into JSON-native types."""
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


class CalibrationService:
    """Supervised streaming driver around a sequential calibrator.

    The service owns no threads and performs no blocking waits of its own
    beyond the restart backoff: callers (the CLI daemon, tests) poll
    :meth:`tick` whenever new observations may have arrived.  ``clock``
    must be a monotonic duration source (default
    :func:`time.monotonic`) and ``sleep`` the matching wait primitive —
    both injectable so chaos tests control time deterministically.

    ``streams`` names the observed streams, in the buffer's order.  They
    key the checkpoint store's fingerprint, so a store written for other
    streams is refused at construction, and :meth:`tick` refuses a buffer
    configured for other streams.

    The degradation contract: a failing or slow window never breaks
    reads.  :meth:`read_forecast` keeps returning the newest sealed
    artifact, tagged with how many windows behind the ingest head it is
    and the wall-clock age of its seal.
    """

    def __init__(self, calibrator: SequentialCalibrator,
                 checkpoints: CheckpointStore,
                 artifacts: ArtifactStore,
                 config: ServiceConfig | None = None, *,
                 streams: Sequence[str] = (CASES,),
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep,
                 progress: Callable[[str], None] | None = None) -> None:
        self.calibrator = calibrator
        self.checkpoints = checkpoints
        self.artifacts = artifacts
        self.config = config or ServiceConfig()
        self.streams = tuple(streams)
        self._clock = clock
        self._sleep = sleep
        self._progress = progress or (lambda _msg: None)
        self._windows: list[TimeWindow] = list(calibrator.schedule)
        self._next_index = 0
        self._posterior = None
        self._planned = calibrator.config.continuation_ensemble_size
        self._planned_resample = calibrator.config.resample_size
        #: The next window's simulated cloud and the posterior it was
        #: proposed from.
        self._stash: tuple[ParticleEnsemble, SimulatedWindow] | None = None
        #: Window whose restart budget ran dry; the service holds position
        #: until a process restart grants a fresh budget.
        self.failed_window: int | None = None
        #: Every event emitted since construction, oldest first.
        self.events: list[ServiceEvent] = []
        # Bind the store to this run's fingerprint immediately: a service
        # pointed at another run's checkpoints must fail at startup, not
        # at first persist.
        checkpoints.validate_run_meta(
            calibrator.run_fingerprint(self.streams))

    # ------------------------------------------------------------------ #
    # Position
    # ------------------------------------------------------------------ #
    @property
    def next_window_index(self) -> int:
        """Index of the first window not yet calibrated."""
        return self._next_index

    @property
    def head(self) -> int | None:
        """Index of the newest calibrated window, or ``None`` if none."""
        return self._next_index - 1 if self._next_index > 0 else None

    @property
    def done(self) -> bool:
        """True once every scheduled window is calibrated."""
        return self._next_index >= len(self._windows)

    def pending_window(self) -> tuple[int, TimeWindow] | None:
        """The next uncalibrated window ``(index, window)``, if any."""
        if self.done:
            return None
        return self._next_index, self._windows[self._next_index]

    def ready(self, buffer: ObservationBuffer) -> bool:
        """Whether the next window's observations are fully ingested."""
        pending = self.pending_window()
        if pending is None or self.failed_window is not None:
            return False
        _, window = pending
        return buffer.covered(window.start_day, window.end_day)

    def expected_head(self, buffer: ObservationBuffer | None = None) -> int:
        """The window index the service *should* have reached by now.

        The calibrated head, extended over any further windows whose data
        is already fully ingested — the yardstick
        :meth:`read_forecast` measures staleness against.  ``-1`` when
        nothing is calibrated and nothing is ready.
        """
        expected = self._next_index - 1
        if buffer is not None:
            for index in range(self._next_index, len(self._windows)):
                window = self._windows[index]
                if not buffer.covered(window.start_day, window.end_day):
                    break
                expected = index
        return expected

    # ------------------------------------------------------------------ #
    # Crash recovery
    # ------------------------------------------------------------------ #
    def resume(self) -> ServiceEvent | None:
        """Restore position from the newest sealed checkpoint window.

        Re-derives the next window's size-policy plans from the restored
        window alone (the plans are Markovian — see
        :meth:`~repro.core.smc.SequentialCalibrator.planned_sizes_after`),
        then heals the artifact store: if the crash landed after the
        checkpoint seal but before the artifact seal, the missing (or
        torn) artifact is rebuilt from the restored posterior — a pure
        function of it, so the re-published bytes match what the
        uninterrupted run would have written.  Rebuilding simulates the
        next window's cloud, which the next tick then weighs.  Returns the
        ``resumed`` event, or ``None`` for a fresh store.
        """
        result = self.calibrator.restore_latest_window(self.checkpoints)
        if result is None:
            return None
        self._accept(result)
        event = self._record(ServiceEvent(
            "resumed", result.index,
            f"restored window {result.index} "
            f"({len(result.posterior)} particles) from {self.checkpoints.root}"))
        if not self.artifacts.validate(result.index):
            path = self.artifacts.publish(result.index,
                                          self._forecast_payload(result))
            self._record(ServiceEvent(
                "republished", result.index,
                f"rebuilt missing/torn artifact at {path}"))
        return event

    # ------------------------------------------------------------------ #
    # The supervision loop
    # ------------------------------------------------------------------ #
    def tick(self, buffer: ObservationBuffer) -> list[ServiceEvent]:
        """Advance through every window the buffer can currently feed.

        Returns the events emitted this tick.  Stops early when a window
        exhausts its restart budget (sticky — see ``failed_window``) or
        when the next window's data has not fully arrived.  Raises
        :class:`ValueError` if the buffer observes other streams than the
        service was built for.
        """
        if buffer.stream_names != self.streams:
            raise ValueError(
                f"buffer streams {list(buffer.stream_names)} differ from "
                f"the service's streams {list(self.streams)}, which key "
                "its checkpoint store")
        events: list[ServiceEvent] = []
        while self.failed_window is None:
            pending = self.pending_window()
            if pending is None:
                break
            index, window = pending
            if not buffer.covered(window.start_day, window.end_day):
                break
            observations = buffer.observation_set(window.start_day,
                                                  window.end_day)
            events.extend(self._run_window(index, window, observations))
            if self.failed_window is None:
                # The window sealed; its days may no longer be revised.
                buffer.advance_frontier(window.end_day)
        return events

    def _run_window(self, index: int, window: TimeWindow,
                    observations: ObservationSet) -> list[ServiceEvent]:
        policy = self.config.restart
        events: list[ServiceEvent] = []
        for attempt in range(1, policy.max_attempts + 1):
            wait = policy.backoff_for(attempt)
            if wait > 0:
                self._sleep(wait)
            started = self._clock()
            try:
                result = self.calibrator.step_window(
                    index, window, observations, self._posterior,
                    n_proposals=self._planned,
                    resample_size=self._planned_resample,
                    cloud=self._kept(self._posterior))
                payload = self._forecast_payload(result)
            except Exception as exc:  # noqa: BLE001 — supervision boundary
                detail = (f"attempt {attempt}/{policy.max_attempts} raised "
                          f"{type(exc).__name__}: {exc}")
                if attempt < policy.max_attempts:
                    events.append(self._record(ServiceEvent(
                        "window_restart", index,
                        f"{detail}; backing off "
                        f"{policy.backoff_for(attempt + 1):.2f}s and retrying")))
                    continue
                self.failed_window = index
                events.append(self._record(ServiceEvent(
                    "window_failed", index,
                    f"{detail}; restart budget exhausted — holding position, "
                    "reads serve the last sealed artifact")))
                return events
            events.extend(self._seal(result, payload, started))
            return events
        raise AssertionError("unreachable: retry loop neither returned "
                             "nor exhausted")

    def _seal(self, result: WindowResult, payload: dict,
              started: float) -> list[ServiceEvent]:
        """Persist, publish, prune, and advance past one window result.

        Order matters for crash safety: the checkpoint seal lands before
        the artifact seal, and :meth:`resume` heals the gap between them,
        so there is no kill point that loses or forks state.  The deadline
        is checked once the artifact is published, ``started`` being the
        clock reading when the window's step began.
        """
        events: list[ServiceEvent] = []
        self.calibrator.persist_window(self.checkpoints, result)
        path = self.artifacts.publish(result.index, payload)
        elapsed = self._clock() - started
        deadline = self.config.restart.timeout_seconds
        if deadline is not None and elapsed > deadline:
            events.append(self._record(ServiceEvent(
                "deadline_missed", result.index,
                f"window took {elapsed:.2f}s against a {deadline:.2f}s "
                "deadline; result kept, service is falling behind")))
        diag = result.diagnostics
        detail = f"ESS {diag.ess:.1f}/{diag.n_particles}"
        if diag.shard_failures:
            detail += f"; recovered {diag.shard_failures} shard failure(s)"
        events.append(self._record(ServiceEvent(
            "window_complete", result.index, detail)))
        events.append(self._record(ServiceEvent(
            "published", result.index, str(path))))
        if self.config.keep_last is not None:
            doomed_cp = self.checkpoints.prune(self.config.keep_last)
            doomed_art = self.artifacts.prune(self.config.keep_last)
            if doomed_cp or doomed_art:
                events.append(self._record(ServiceEvent(
                    "pruned", result.index,
                    f"dropped checkpoint windows {doomed_cp} and artifact "
                    f"windows {doomed_art} (keep_last="
                    f"{self.config.keep_last})")))
        self._accept(result)
        return events

    def _accept(self, result: WindowResult) -> None:
        """Adopt ``result`` as the calibration head and re-plan sizes."""
        self._posterior = result.posterior
        self._next_index = result.index + 1
        if self._next_index < len(self._windows):
            self._planned, self._planned_resample = \
                self.calibrator.planned_sizes_after(
                    result,
                    next_window_days=self._windows[self._next_index].n_days)
        if self._kept(self._posterior) is None:
            self._stash = None

    def _kept(self, posterior: ParticleEnsemble | None
              ) -> SimulatedWindow | None:
        """The kept cloud if it was proposed from ``posterior`` (the same
        object), else ``None``.  The posterior fixes the cloud's window and
        planned size; :meth:`~repro.core.smc.SequentialCalibrator.\
step_window` refuses a cloud of another window or size."""
        if self._stash is None:
            return None
        origin, cloud = self._stash
        return cloud if origin is posterior else None

    def _next_cloud(self, result: WindowResult) -> SimulatedWindow:
        """Window ``result.index + 1``'s cloud, proposed from ``result``'s
        posterior at the size planned after it: the kept one if it
        matches, else simulated now and kept for the tick that weighs it."""
        cloud = self._kept(result.posterior)
        if cloud is None:
            index = result.index + 1
            window = self._windows[index]
            n_proposals, _ = self.calibrator.planned_sizes_after(
                result, next_window_days=window.n_days)
            cloud = self.calibrator.simulate_window(
                index, window, result.posterior, n_proposals=n_proposals)
            self._stash = (result.posterior, cloud)
        return cloud

    def _forecast_payload(self, result: WindowResult) -> dict:
        """Build the servable forecast artifact for one window.

        Before the last window the forecast is the next window's proposal
        cloud (:meth:`_next_cloud`; ``n_trajectories`` is its size), read
        by :func:`~repro.inference.forecast.forecast_from_cloud`.  After
        the last window it is the posterior restarted with theta held
        (:func:`~repro.inference.forecast.forecast_from_posterior`, one
        continuation per particle).  Deterministic by construction: the
        cloud's randomness is keyed by ``(base_seed, window index)``, the
        continuations' by ``(forecast_seed, member seeds)`` on the
        registered forecast stream, the shard layout is the calibrator's,
        and every value is JSON-native — so the canonical artifact bytes
        are a pure function of the posterior, the calibrator and the
        service config.  No timestamps ride in the payload; staleness is
        computed at read time from the seal file instead.
        """
        cfg = self.config
        cal = self.calibrator
        shared = {"executor": cal.executor, "base_seed": cfg.forecast_seed,
                  "shard_size": cal.config.shard_size,
                  "n_shards": cal.config.n_shards}
        if result.index + 1 < len(self._windows):
            forecast = forecast_from_cloud(
                self._next_cloud(result).ensemble, cfg.horizon_days, **shared)
        else:
            forecast = forecast_from_posterior(
                result.posterior, cfg.horizon_days, **shared)
        channels: dict[str, dict] = {}
        for channel in cfg.forecast_channels:
            ribbon = forecast.ribbon(channel, cfg.quantiles)
            channels[channel] = {
                "start_day": int(ribbon.start_day),
                "quantiles": {f"{q:g}": [float(v) for v in ribbon.band(q)]
                              for q in cfg.quantiles},
            }
        return {
            "format_version": 1,
            "window_index": int(result.index),
            "window_label": result.window.label(),
            "posterior_size": len(result.posterior),
            "base_seed": int(cal.config.base_seed),
            "forecast_seed": int(cfg.forecast_seed),
            "forecast_start_day": int(forecast.start_day),
            "horizon_days": int(cfg.horizon_days),
            "n_trajectories": len(forecast),
            "channels": channels,
            "diagnostics": _jsonify(result.diagnostics.to_dict()),
            "posterior_summary": _jsonify(result.summary()),
        }

    def read_forecast(self, buffer: ObservationBuffer | None = None
                      ) -> ArtifactRead | None:
        """Serve the freshest valid forecast, degraded if necessary.

        Never raises on service trouble: behind, failed, or mid-publish,
        the newest sealed artifact is returned tagged stale-with-age
        (measured against :meth:`expected_head`).  ``None`` only before
        the first window ever seals.
        """
        expected = self.expected_head(buffer)
        return self.artifacts.read_latest(
            expected_window=expected if expected >= 0 else None)

    def _record(self, event: ServiceEvent) -> ServiceEvent:
        self.events.append(event)
        self._progress(event.render())
        return event
