"""Parity oracles: assert two calibration artefacts are bit-identical.

The scenario-vectorization guarantees (``docs/scenarios.md``) are all
phrased as bitwise identities: a scenario calibrated inside a sweep must
equal the same scenario calibrated alone; an N=1 sweep must equal the
plain batched calibrator; a retried or killed-and-resumed sweep must equal
an uninterrupted one.  These helpers state those identities once, so every
suite (parity oracles, property tests, chaos tests) asserts the same
thing with the same tolerance — none.

Execution metadata is deliberately excluded from the comparison: a
retried run records its recovered shard failures in
``WindowDiagnostics.shard_failures`` / ``shard_failure_causes`` while its
statistical state stays bit-identical to a fault-free run, so those two
keys are stripped before diagnostics are compared
(:func:`statistical_diagnostics`).

:func:`population_conserved` states the closed-population invariant once
for every engine, batched or scalar.

The module also ships the standard small parity environment — a
town-scale ground truth and calibrator/sweep factories with a pinned
shard layout — so oracle suites across files exercise identical inputs.
"""

from __future__ import annotations

from dataclasses import replace

from numpy import array_equal

from ..core import (ObservationModel, SequentialCalibrator, SMCConfig,
                    WindowSchedule, paper_first_window_prior,
                    paper_window_jitter)
from ..core.scenarios import ScenarioSweep
from ..data import PiecewiseConstant
from ..seir import DiseaseParameters
from ..sim import make_ground_truth

__all__ = [
    "assert_trajectories_identical",
    "assert_ensembles_identical",
    "assert_window_results_identical",
    "assert_runs_identical",
    "population_conserved",
    "statistical_diagnostics",
    "parity_truth",
    "parity_config",
    "parity_calibrator",
    "parity_sweep",
]

#: Trajectory channels compared bitwise by the oracles.
_CHANNELS = ("infections", "deaths", "hospital_census", "icu_census")

#: Diagnostics keys that record *how* a window was executed rather than
#: *what* it computed; legitimately differ between bit-identical runs.
_EXECUTION_METADATA = ("shard_failures", "shard_failure_causes")


def _where(context: str) -> str:
    return f" ({context})" if context else ""


# --------------------------------------------------------------------- #
# assertions
# --------------------------------------------------------------------- #
def assert_trajectories_identical(a, b, context: str = "") -> None:
    """Bitwise equality of two trajectory batches (or both absent)."""
    where = _where(context)
    if a is None or b is None:
        assert a is None and b is None, f"trajectory presence differs{where}"
        return
    assert a.start_day == b.start_day, (
        f"start days differ{where}: {a.start_day} != {b.start_day}")
    for channel in _CHANNELS:
        left, right = getattr(a, channel), getattr(b, channel)
        assert left.shape == right.shape and array_equal(left, right), (
            f"channel {channel!r} differs{where}")


def assert_ensembles_identical(a, b, context: str = "") -> None:
    """Bitwise equality of two particle ensembles, column by column:
    parameters, seeds, log-weights, ancestry, trajectories and the restart
    state that checkpoints every particle."""
    where = _where(context)
    assert len(a) == len(b), (
        f"ensemble sizes differ{where}: {len(a)} != {len(b)}")
    assert a.param_names == b.param_names, (
        f"parameter names differ{where}: {a.param_names} != {b.param_names}")
    columns = [("seeds", a.seeds(), b.seeds()),
               ("log-weights", a.log_weights(), b.log_weights()),
               ("ancestors", a.ancestors(), b.ancestors())]
    columns += [(f"param {name!r}", a.values(name), b.values(name))
                for name in a.param_names]
    ra, rb = a.restart, b.restart
    assert (ra is None) == (rb is None), f"checkpoint presence differs{where}"
    if ra is not None and rb is not None:
        assert (ra.day, ra.steps_per_day) == (rb.day, rb.steps_per_day), (
            f"checkpoint clocks differ{where}")
        columns += [(f"checkpoint {name}", getattr(ra, name), getattr(rb, name))
                    for name in ("counts", "cum_infections", "cum_deaths",
                                 "seeds")]
        assert (ra.params is None) == (rb.params is None), (
            f"checkpoint parameter presence differs{where}")
        if ra.params is not None and rb.params is not None:
            # Each row runs under its theta, so the record's own
            # transmission rate is never read.
            assert replace(ra.params, transmission_rate=0.0) == \
                replace(rb.params, transmission_rate=0.0), (
                    f"checkpoint parameters differ{where}")
            columns.append(("checkpoint thetas", ra.thetas, rb.thetas))
    for what, left, right in columns:
        assert left.shape == right.shape and array_equal(left, right), (
            f"{what} differ{where}")
    assert_trajectories_identical(a.segments, b.segments,
                                  f"{context} segments".strip())
    assert_trajectories_identical(a.histories, b.histories,
                                  f"{context} histories".strip())


def statistical_diagnostics(diagnostics) -> dict:
    """Diagnostics dict with execution metadata stripped for comparison."""
    payload = diagnostics.to_dict()
    for key in _EXECUTION_METADATA:
        payload.pop(key, None)
    return payload


def assert_window_results_identical(a, b, context: str = "") -> None:
    """Bitwise equality of two window results, modulo execution metadata."""
    where = _where(context)
    assert a.index == b.index, (
        f"window indices differ{where}: {a.index} != {b.index}")
    assert a.window == b.window, (
        f"windows differ{where}: {a.window} != {b.window}")
    assert statistical_diagnostics(a.diagnostics) == \
        statistical_diagnostics(b.diagnostics), (
        f"diagnostics differ{where} at window {a.index}")
    assert_ensembles_identical(a.posterior, b.posterior,
                               f"{context} window {a.index}".strip())


def assert_runs_identical(a, b, context: str = "") -> None:
    """Bitwise equality of two full window-result sequences."""
    a, b = list(a), list(b)
    assert len(a) == len(b), (
        f"window counts differ{_where(context)}: {len(a)} != {len(b)}")
    for wa, wb in zip(a, b):
        assert_window_results_identical(wa, wb, context)


def population_conserved(engine) -> bool:
    """Closed-population invariant: every member's compartments sum to N.

    ``engine.counts`` is one member's occupancy vector (the scalar oracles)
    or the ``(n_members, n_compartments)`` matrix of a batch.
    """
    return bool((engine.counts.sum(axis=-1)
                 == engine.params.population).all())


# --------------------------------------------------------------------- #
# the standard small parity environment
# --------------------------------------------------------------------- #
def parity_truth(population: int = 50_000, horizon: int = 35,
                 seed: int = 555):
    """Town-scale ground truth shared by the parity suites.

    Small enough that a full four-window calibration at the
    :func:`parity_config` sizes runs in well under a second, large enough
    that the binomial-leap dynamics are non-degenerate.
    """
    params = DiseaseParameters(population=population, initial_exposed=100)
    return make_ground_truth(params=params, horizon=horizon, seed=seed,
                             theta_schedule=PiecewiseConstant.constant(0.30),
                             rho_schedule=PiecewiseConstant.constant(0.7))


def parity_config(base_seed: int = 17, **config_kwargs) -> SMCConfig:
    """Small config with the fixed shard layout the oracles pin.

    ``n_shards=3`` (unless overridden) keeps shard boundaries identical
    across serial and pooled executors, so cross-executor comparisons are
    bitwise rather than merely statistical.
    """
    config_kwargs.setdefault("n_shards", 3)
    return SMCConfig(n_parameter_draws=30, n_replicates=2, resample_size=40,
                     base_seed=base_seed, **config_kwargs)


_PARITY_BREAKS = (8, 16, 24, 32)


def parity_calibrator(truth, *, scenario=None, executor=None,
                      breaks=_PARITY_BREAKS, base_seed: int = 17,
                      progress=None, **config_kwargs) -> SequentialCalibrator:
    """A single-scenario calibrator over the standard parity environment."""
    return SequentialCalibrator(
        base_params=truth.params,
        prior=paper_first_window_prior(),
        jitter=paper_window_jitter(),
        observation_model=ObservationModel(),
        schedule=WindowSchedule.from_breaks(list(breaks)),
        config=parity_config(base_seed, **config_kwargs),
        executor=executor, progress=progress, scenario=scenario)


def parity_sweep(truth, scenarios, *, executor=None, breaks=_PARITY_BREAKS,
                 base_seed: int = 17, progress=None,
                 **config_kwargs) -> ScenarioSweep:
    """A multi-scenario sweep over the same environment and shard layout."""
    return ScenarioSweep(
        base_params=truth.params,
        prior=paper_first_window_prior(),
        jitter=paper_window_jitter(),
        observation_model=ObservationModel(),
        schedule=WindowSchedule.from_breaks(list(breaks)),
        scenarios=scenarios,
        config=parity_config(base_seed, **config_kwargs),
        executor=executor, progress=progress)
