"""Top-level convenience API: ``calibrate()`` in one call.

Wires a :class:`~repro.inference.config.CalibrationConfig` into the core
:class:`~repro.core.smc.SequentialCalibrator` and wraps the outcome in a
:class:`~repro.inference.results.CalibrationResult`.  This is the function
the examples and benches use; power users can assemble the core objects
directly for full control.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Sequence

from ..core.scenarios import ScenarioSpec, ScenarioSweep, get_scenario
from ..core.smc import SequentialCalibrator
from ..data.sources import ObservationSet
from ..data.validation import validate_observations
from ..hpc.checkpoint_io import CheckpointStore
from ..hpc.executor import Executor
from ..seir.parameters import DiseaseParameters
from .config import CalibrationConfig
from .results import CalibrationResult, ScenarioSweepResult

__all__ = ["calibrate", "calibrate_scenarios"]


def calibrate(observations: ObservationSet,
              config: CalibrationConfig | None = None,
              base_params: DiseaseParameters | None = None,
              executor: Executor | None = None,
              verbose: bool = False,
              store: CheckpointStore | None = None,
              scenario: ScenarioSpec | str | None = None) -> CalibrationResult:
    """Run the paper's sequential calibration against observed data streams.

    Parameters
    ----------
    observations:
        The observed streams (cases, optionally deaths) covering every
        calibration window of the config's schedule.
    config:
        Run configuration; defaults to the paper's settings at laptop scale.
    base_params:
        Disease parameterisation; config ``disease_overrides`` are applied
        on top.
    executor:
        Overrides the executor named in the config (useful for injecting a
        shared pool across several runs).
    verbose:
        Print per-window progress lines.
    store:
        Overrides the checkpoint store built from ``config.checkpoint_dir``
        (useful for injecting a store with a custom run id).  When either
        is set, every completed window is durably persisted, and
        ``config.resume`` restarts from the last complete stored window —
        bit-identical to an uninterrupted run (see
        ``docs/fault_tolerance.md``).
    scenario:
        Optional :class:`~repro.core.scenarios.ScenarioSpec` (or registered
        name) to calibrate under — declarative parameter overrides on top
        of ``base_params`` (see ``docs/scenarios.md``).  None and the
        registered ``"baseline"`` are bit-identical to a scenario-less run.

    Returns
    -------
    CalibrationResult
        Per-window posteriors, diagnostics, and figure-regeneration helpers.
    """
    validate_observations(observations)
    config = config or CalibrationConfig()
    params = config.disease_params(base_params)
    own_executor = executor is None
    exec_backend = executor if executor is not None else config.make_executor()
    progress = print if verbose else None
    if store is None:
        store = config.checkpoint_store()
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario

    calibrator = SequentialCalibrator(
        base_params=params,
        prior=config.prior(),
        jitter=config.jitter(),
        observation_model=config.observation_model(),
        schedule=config.schedule(),
        config=config.smc_config(),
        executor=exec_backend,
        progress=progress,
        scenario=spec,
    )
    # repro-allow: REPRO201 wall_time_seconds is reporting metadata, never an input to any draw
    started = time.perf_counter()
    try:
        window_results = calibrator.run(observations, store=store,
                                        resume=config.resume)
    finally:
        if own_executor:
            exec_backend.close()
    # repro-allow: REPRO201 wall_time_seconds is reporting metadata, never an input to any draw
    elapsed = time.perf_counter() - started
    if store is not None and config.checkpoint_keep_last is not None:
        # Post-run retention GC only: pruning mid-run would break the
        # gapless-prefix restore that batch resume performs.
        pruned = store.prune(config.checkpoint_keep_last)
        if pruned and verbose:
            print(f"pruned {len(pruned)} old checkpoint window(s), "
                  f"kept the newest {config.checkpoint_keep_last}")
    return CalibrationResult(schedule=config.schedule(),
                             windows=tuple(window_results),
                             config_payload=config.to_dict(),
                             wall_time_seconds=elapsed,
                             resumed_from=calibrator.resumed_from,
                             scenario=spec.name if spec is not None
                             else "baseline")


def calibrate_scenarios(observations: ObservationSet,
                        scenarios: Sequence[ScenarioSpec | str] = ("baseline",),
                        config: CalibrationConfig | None = None,
                        base_params: DiseaseParameters | None = None,
                        executor: Executor | None = None,
                        verbose: bool = False) -> ScenarioSweepResult:
    """Calibrate several scenarios as one vectorized, deduplicated sweep.

    The multi-world form of :func:`calibrate`: every scenario shares the
    config, executor, and (by default) random-number streams, all
    scenarios' shards are flattened into each window's executor dispatch,
    and windows provably identical across scenarios are computed once
    (see :class:`~repro.core.scenarios.ScenarioSweep`).  Per-scenario
    results are **bit-identical** to calling :func:`calibrate` once per
    scenario with this config.

    With ``config.checkpoint_dir`` set, each scenario persists/resumes
    against its own sub-store (``<checkpoint_dir>/<scenario>``), honouring
    ``config.resume`` exactly like single-scenario runs.
    """
    validate_observations(observations)
    config = config or CalibrationConfig()
    params = config.disease_params(base_params)
    own_executor = executor is None
    exec_backend = executor if executor is not None else config.make_executor()
    progress = print if verbose else None

    sweep = ScenarioSweep(
        base_params=params,
        prior=config.prior(),
        jitter=config.jitter(),
        observation_model=config.observation_model(),
        schedule=config.schedule(),
        scenarios=scenarios,
        config=config.smc_config(),
        executor=exec_backend,
        progress=progress,
    )
    stores = None
    if config.checkpoint_dir is not None:
        root = Path(config.checkpoint_dir)
        stores = {name: CheckpointStore(root / name) for name in sweep.names}
    # repro-allow: REPRO201 sweep wall time is reporting metadata, never an input to any draw
    started = time.perf_counter()
    try:
        window_results = sweep.run(observations, stores=stores,
                                   resume=config.resume)
    finally:
        if own_executor:
            exec_backend.close()
    # repro-allow: REPRO201 sweep wall time is reporting metadata, never an input to any draw
    elapsed = time.perf_counter() - started
    if stores is not None and config.checkpoint_keep_last is not None:
        for name_store in stores.values():
            name_store.prune(config.checkpoint_keep_last)
    results = tuple(
        CalibrationResult(schedule=config.schedule(),
                          windows=tuple(window_results[name]),
                          config_payload=config.to_dict(),
                          wall_time_seconds=float("nan"),
                          resumed_from=sweep.resumed_from.get(name),
                          scenario=name)
        for name in sweep.names)
    return ScenarioSweepResult(results=results,
                               wall_time_seconds=elapsed,
                               computed_windows=sweep.computed_windows,
                               reused_windows=sweep.reused_windows)
