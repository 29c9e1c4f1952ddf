"""Named scenarios: declarative parameter worlds over one calibration.

A :class:`ScenarioSpec` is a small, validated, canonical description of
"the same epidemic under different assumptions": a name plus a set of
:class:`ScenarioOverride`\\ s on :class:`~repro.seir.parameters
.DiseaseParameters` fields.  Day-0 overrides rewrite the structural world
(population, seeding, baseline rates); later overrides model mid-run
events — a milder variant taking over, an intervention landing, detection
practice changing — and are restricted to the paper's checkpoint-restart
knobs (:data:`~repro.seir.parameters.RESTART_FIELDS`)
starting exactly at a continuation window boundary, because that is where
the engine stops and parameters can actually change.

The built-in scenarios sit in the read-only :data:`SCENARIOS` table
(name -> spec) and are grouped into named :data:`SCENARIO_SETS` for the
CLI's ``--scenario-set``; any other spec is passed to a calibration
directly.

**RNG contract.**  Scenarios use *common random numbers*: every scenario
of a sweep draws from the same ``base_seed`` streams, so two scenarios
whose effective parameters agree over a window prefix produce
bit-identical windows — which is what makes scenario differences estimates
of the *scenario effect* rather than of Monte Carlo noise, and what lets
:class:`ScenarioSweep` compute each distinct world-line once.

**World-line deduplication.**  :class:`ScenarioSweep` runs S scenarios over
one shared :class:`~repro.core.smc.SequentialCalibrator` configuration.
Within each window it partitions the still-active scenarios into
*world-lines* — groups whose upcoming window is provably bit-identical:
same effective window parameters and same lineage (they shared every
previous window, hence the previous result that sizes the next cloud).
The sweep is the calibrator's own window loop
(:func:`~repro.core.smc.window_loop`) over one calibrator per scenario,
keyed by world-line: each line is computed
once, **all** lines' group specs sent to one
:func:`~repro.hpc.sharding.simulate_groups` dispatch by
:func:`~repro.core.smc.window_step`.
Lines split when a scenario's override kicks in and never re-merge
(diverged state stays diverged even if parameters re-converge).  A plain
:meth:`~repro.core.smc.SequentialCalibrator.run` is the same loop over one
calibrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from ..data.sources import ObservationSet
from ..hpc.checkpoint_io import CheckpointStore
from ..hpc.executor import Executor
from ..seir.parameters import RESTART_FIELDS, DiseaseParameters
from .observation import ObservationModel
from .priors import IndependentProduct
from .proposals import JointJitter
from .smc import SequentialCalibrator, SMCConfig, WindowResult, window_loop
from .window import TimeWindow, WindowSchedule

__all__ = ["ScenarioOverride", "ScenarioSpec", "SCENARIOS", "SCENARIO_SETS",
           "get_scenario", "scenario_set", "ScenarioSweep"]

_PARAM_FIELD_TYPES: dict[str, str] = {
    f.name: str(f.type) for f in dataclass_fields(DiseaseParameters)}
_RESTART_FIELDS = frozenset(RESTART_FIELDS)


@dataclass(frozen=True)
class ScenarioOverride:
    """One field's scenario value, effective from ``start_day`` onward.

    ``start_day=0`` rewrites the base world before simulation begins and
    may target any :class:`~repro.seir.parameters.DiseaseParameters`
    field.  A positive ``start_day`` models a mid-run change and must
    target a checkpoint-restart knob — the only fields the engine can
    change at a window boundary (schedule alignment itself is validated
    against the run's :class:`~repro.core.window.WindowSchedule` by
    :meth:`ScenarioSpec.check_schedule`).
    """

    field: str
    value: float
    start_day: int = 0

    def __post_init__(self) -> None:
        if self.field not in _PARAM_FIELD_TYPES:
            raise ValueError(
                f"unknown DiseaseParameters field {self.field!r}")
        value = float(self.value)
        if not math.isfinite(value):
            raise ValueError(f"override value for {self.field!r} must be "
                             f"finite, got {self.value!r}")
        if int(self.start_day) < 0:
            raise ValueError("start_day must be >= 0")
        if self.start_day > 0 and self.field not in _RESTART_FIELDS:
            raise ValueError(
                f"override of {self.field!r} at day {self.start_day}: only "
                f"the checkpoint-restart knobs {sorted(_RESTART_FIELDS)} "
                "can change mid-run; structural fields need start_day=0")
        if _PARAM_FIELD_TYPES[self.field] == "int" and value != int(value):
            raise ValueError(
                f"{self.field!r} is an integer field; got {self.value!r}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "start_day", int(self.start_day))

    def coerced(self) -> float | int:
        """The value in the field's own type."""
        if _PARAM_FIELD_TYPES[self.field] == "int":
            return int(self.value)
        return self.value

    def to_dict(self) -> dict[str, object]:
        return {"field": self.field, "value": self.value,
                "start_day": self.start_day}


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, validated, canonically ordered set of overrides.

    Overrides are stored sorted by ``(start_day, field)`` (so equal specs
    compare equal however they were written) and no two overrides may
    share a ``(field, start_day)`` pair.
    """

    name: str
    description: str = ""
    overrides: tuple[ScenarioOverride, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not all(
                (c.isascii() and c.isalnum()) or c in "_-"
                for c in self.name):
            raise ValueError(
                f"scenario name must be a non-empty [a-zA-Z0-9_-] slug, "
                f"got {self.name!r}")
        ordered = tuple(sorted(self.overrides,
                               key=lambda o: (o.start_day, o.field)))
        seen: set[tuple[str, int]] = set()
        for override in ordered:
            key = (override.field, override.start_day)
            if key in seen:
                raise ValueError(
                    f"scenario {self.name!r} overrides {override.field!r} "
                    f"twice at day {override.start_day}")
            seen.add(key)
        object.__setattr__(self, "overrides", ordered)

    @property
    def is_baseline(self) -> bool:
        """True when the spec changes nothing about a scenario-less run."""
        return not self.overrides

    def params_at(self, day: int,
                  base: DiseaseParameters) -> DiseaseParameters:
        """``base`` with every override whose ``start_day <= day`` applied.

        Later start days win per field (canonical ordering guarantees the
        application order).  With no reached overrides this returns
        ``base`` itself, bit-for-bit.
        """
        updates: dict[str, float | int] = {}
        for override in self.overrides:
            if override.start_day <= day:
                updates[override.field] = override.coerced()
        if not updates:
            return base
        return base.with_updates(**updates)

    def check_schedule(self, schedule: WindowSchedule) -> None:
        """Check the overrides against a run's schedule; raises
        ``ValueError`` naming the first that cannot apply.

        The transmission rate belongs to the sampler (every member's theta
        draw): an override of it would be silently overwritten by every
        draw.  Mid-run overrides can only
        take effect where the engine stops — simulation runs
        window-at-a-time, so any override after day 0 must start exactly
        at a continuation window's start day (and
        :class:`ScenarioOverride` already restricts those to the
        checkpoint-restart knobs).
        """
        continuation_starts = {w.start_day for w in list(schedule)[1:]}
        for override in self.overrides:
            if override.field == "transmission_rate":
                raise ValueError(
                    f"scenario {self.name!r} overrides {override.field!r}, "
                    "which the calibration draws as theta; a calibrated "
                    "field cannot be scenario-pinned")
            if override.start_day > 0 and \
                    override.start_day not in continuation_starts:
                raise ValueError(
                    f"scenario {self.name!r} override of "
                    f"{override.field!r} starts at day {override.start_day}, "
                    "which is not a continuation window start "
                    f"({sorted(continuation_starts)}); mid-run overrides "
                    "can only take effect at a window boundary")

    def fingerprint_payload(self) -> dict[str, object]:
        """JSON-stable identity for run fingerprints (checkpoint stores).

        ``"independent_streams"`` is a literal left from when a scenario
        could opt out of common random numbers, so stores written then
        still resume.
        """
        return {"name": self.name,
                "independent_streams": False,
                "overrides": [o.to_dict() for o in self.overrides]}


# --------------------------------------------------------------------------- #
# Built-in scenarios.  Mid-run start days (34, 48) sit on the paper
# schedule's continuation window boundaries (breaks 20/34/48/62/76).
# --------------------------------------------------------------------------- #
#: The built-in scenarios by name, in canonical (name-sorted) order.  Read
#: only: a scenario outside it is passed to the calibration as a spec.
SCENARIOS: Mapping[str, ScenarioSpec] = MappingProxyType({
    spec.name: spec for spec in sorted((
        ScenarioSpec(
            name="baseline",
            description="the calibration exactly as configured; no "
                        "overrides"),
        ScenarioSpec(
            name="milder_variant_d34",
            description="a milder variant dominates from day 34 "
                        "(mild_fraction 0.92 -> 0.97)",
            overrides=(ScenarioOverride(field="mild_fraction", value=0.97,
                                        start_day=34),)),
        ScenarioSpec(
            name="late_intervention_d48",
            description="strict isolation of detected cases from day 48 "
                        "(detected_rel_infectiousness 0.15 -> 0.05)",
            overrides=(ScenarioOverride(field="detected_rel_infectiousness",
                                        value=0.05, start_day=48),)),
        ScenarioSpec(
            name="relaxed_detection_d48",
            description="isolation compliance erodes from day 48 "
                        "(detected_rel_infectiousness 0.15 -> 0.30)",
            overrides=(ScenarioOverride(field="detected_rel_infectiousness",
                                        value=0.30, start_day=48),)),
    ), key=lambda spec: spec.name)})


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a built-in scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered: "
            f"{sorted(SCENARIOS)}") from None


SCENARIO_SETS: dict[str, tuple[str, ...]] = {
    "default": ("baseline", "milder_variant_d34", "late_intervention_d48",
                "relaxed_detection_d48"),
}


def scenario_set(name: str) -> list[ScenarioSpec]:
    """Resolve a named scenario set to specs in canonical order."""
    try:
        members = SCENARIO_SETS[name]
    except KeyError:
        raise KeyError(f"unknown scenario set {name!r}; available: "
                       f"{sorted(SCENARIO_SETS)}") from None
    return [get_scenario(member) for member in sorted(members)]


# --------------------------------------------------------------------------- #
# The sweep driver
# --------------------------------------------------------------------------- #
def _resolve_specs(scenarios: Sequence[ScenarioSpec | str]
                   ) -> list[ScenarioSpec]:
    specs = [get_scenario(s) if isinstance(s, str) else s for s in scenarios]
    by_name: dict[str, ScenarioSpec] = {}
    for spec in specs:
        if spec.name in by_name and by_name[spec.name] != spec:
            raise ValueError(
                f"two different scenarios both named {spec.name!r}")
        by_name[spec.name] = spec
    if not by_name:
        raise ValueError("need at least one scenario")
    return [by_name[name] for name in sorted(by_name)]


class ScenarioSweep:
    """Calibrate S scenarios as one vectorized, deduplicated sweep.

    Construction mirrors :class:`~repro.core.smc.SequentialCalibrator`
    plus a ``scenarios`` sequence (specs or built-in names; duplicates
    collapse; execution order is canonical name order, so per-scenario
    results never depend on the order scenarios were requested in).  One
    calibrator per scenario shares the executor and config.

    Each scenario's windows are **bit-identical to running that scenario
    alone** with the same config and shard layout: every scenario draws
    from the run's ``base_seed`` streams (common random numbers), shard
    RNG streams are keyed by seed slices rather than dispatch positions,
    and the world-line partition only ever merges windows that are
    provably identical.  ``computed_windows`` / ``reused_windows`` count
    how much the deduplication saved.

    Progress lines carry a ``[scenario]`` prefix when there is more than
    one scenario; a one-scenario sweep is a plain calibration and prints
    what :meth:`~repro.core.smc.SequentialCalibrator.run` prints.
    """

    def __init__(self, base_params: DiseaseParameters,
                 prior: IndependentProduct,
                 jitter: JointJitter,
                 observation_model: ObservationModel,
                 schedule: WindowSchedule,
                 scenarios: Sequence[ScenarioSpec | str],
                 config: SMCConfig | None = None,
                 executor: Executor | None = None,
                 progress: Callable[[str], None] | None = None) -> None:
        self.specs = _resolve_specs(scenarios)
        self.config = config or SMCConfig()
        self._progress = progress or (lambda _msg: None)
        self.calibrators: dict[str, SequentialCalibrator] = {}
        for spec in self.specs:
            prefix = f"[{spec.name}] " if len(self.specs) > 1 else ""
            self.calibrators[spec.name] = SequentialCalibrator(
                base_params=base_params, prior=prior, jitter=jitter,
                observation_model=observation_model, schedule=schedule,
                config=self.config, executor=executor,
                progress=(lambda msg, _p=prefix: self._progress(_p + msg)),
                scenario=spec)
        self.schedule = self.calibrators[self.specs[0].name].schedule
        #: Windows actually simulated vs windows served from another
        #: scenario's identical world-line; updated by :meth:`run`.
        self.computed_windows = 0
        self.reused_windows = 0
        #: Per-scenario resume point (see ``SequentialCalibrator.resumed_from``).
        self.resumed_from: dict[str, int | None] = {}

    @property
    def names(self) -> list[str]:
        """Scenario names in canonical (execution) order."""
        return [spec.name for spec in self.specs]

    def _line_key(self, name: str, window: TimeWindow,
                  lineage: object) -> tuple[object, ...]:
        """Hashable world-line identity for one scenario's next window.

        Scenarios sharing a key get bit-identical windows: every scenario
        draws from the run's one set of streams, so sharing needs the same
        *effective* window parameters (stronger than equal override
        declarations), the same lineage token (they shared every window so
        far — diverged lines never re-merge).  An equal lineage means the
        same previous result, hence the same cloud size.
        """
        calib = self.calibrators[name]
        spec = calib.scenario
        assert spec is not None
        effective = spec.params_at(window.start_day, calib.base_params)
        return (tuple(sorted(effective.to_dict().items())), lineage)

    def run(self, observations: ObservationSet, *,
            stores: Mapping[str, CheckpointStore] | None = None,
            resume: bool = False) -> dict[str, list[WindowResult]]:
        """Calibrate every scenario; returns per-scenario window results.

        :func:`~repro.core.smc.window_loop` over the scenarios'
        calibrators, keyed by world-line.  With ``stores`` (scenario name
        -> :class:`CheckpointStore`), each scenario persists/resumes
        exactly as a standalone :meth:`SequentialCalibrator.run` would
        against its own store — fingerprints include the scenario
        identity, so a store written for one scenario refuses another.
        Scenarios restored to different depths rejoin the sweep at their
        own next window (restored prefixes are conservatively never
        world-line-shared).
        """
        results, self.computed_windows, self.reused_windows = window_loop(
            self.calibrators, observations, stores=stores, resume=resume,
            line_key=self._line_key, progress=self._progress)
        self.resumed_from = {name: calib.resumed_from
                             for name, calib in self.calibrators.items()}
        return results
