"""Top-level convenience API: ``calibrate()`` in one call.

Wires a :class:`~repro.inference.config.CalibrationConfig` into the core
:class:`~repro.core.scenarios.ScenarioSweep` and wraps the outcome in
:class:`~repro.inference.results.CalibrationResult`\\ s.  :func:`calibrate`
is the one-scenario sweep whose store sits at the checkpoint root;
:func:`calibrate_scenarios` gives each scenario a sub-store.  These are
the functions the examples and benches use; power users can assemble the
core objects directly for full control.
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Sequence

from ..core.scenarios import ScenarioSpec, ScenarioSweep
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
        Disease parameterisation (default: ``DiseaseParameters()``).
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
    config = config or CalibrationConfig()
    if store is None:
        store = config.checkpoint_store()
    sweep = _sweep(observations, config, base_params, executor, verbose,
                   ["baseline" if scenario is None else scenario],
                   None if store is None else (lambda _name: store))
    return replace(sweep[0], wall_time_seconds=sweep.wall_time_seconds)


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
    config = config or CalibrationConfig()
    root = config.checkpoint_dir
    return _sweep(observations, config, base_params, executor, verbose,
                  scenarios, None if root is None
                  else (lambda name: CheckpointStore(Path(root) / name)))


def _sweep(observations: ObservationSet, config: CalibrationConfig,
           base_params: DiseaseParameters | None, executor: Executor | None,
           verbose: bool, scenarios: Sequence[ScenarioSpec | str],
           store_of: Callable[[str], CheckpointStore] | None
           ) -> ScenarioSweepResult:
    """Build, run and report the sweep both entry points share;
    ``store_of(name)`` is a scenario's checkpoint store (None: no
    persistence)."""
    validate_observations(observations)
    own_executor = executor is None
    exec_backend = executor if executor is not None else config.make_executor()
    try:
        sweep = ScenarioSweep(
            base_params=config.disease_params(base_params),
            prior=config.prior(),
            jitter=config.jitter(),
            observation_model=config.observation_model(),
            schedule=config.schedule(),
            scenarios=scenarios,
            config=config,
            executor=exec_backend,
            progress=print if verbose else None,
        )
        stores = None if store_of is None else {
            name: store_of(name) for name in sweep.names}
        # repro-allow: REPRO201 wall_time_seconds is reporting metadata, never an input to any draw
        started = time.perf_counter()
        window_results = sweep.run(observations, stores=stores,
                                   resume=config.resume)
    finally:
        if own_executor:
            exec_backend.close()
    # repro-allow: REPRO201 wall_time_seconds is reporting metadata, never an input to any draw
    elapsed = time.perf_counter() - started
    if stores is not None and config.checkpoint_keep_last is not None:
        # Post-run retention GC only: pruning mid-run would break the
        # gapless-prefix restore that batch resume performs.
        for name, name_store in stores.items():
            pruned = name_store.prune(config.checkpoint_keep_last)
            if pruned and verbose:
                label = f"[{name}] " if len(stores) > 1 else ""
                print(f"{label}pruned {len(pruned)} old checkpoint "
                      f"window(s), kept the newest "
                      f"{config.checkpoint_keep_last}")
    return ScenarioSweepResult(
        results=tuple(
            CalibrationResult(schedule=config.schedule(),
                              windows=tuple(window_results[name]),
                              config_payload=config.to_dict(),
                              resumed_from=sweep.resumed_from[name],
                              scenario=name)
            for name in sweep.names),
        wall_time_seconds=elapsed,
        computed_windows=sweep.computed_windows,
        reused_windows=sweep.reused_windows)
