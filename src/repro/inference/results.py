"""Calibration results: per-window posteriors, ribbons, serialisable summary.

:class:`CalibrationResult` is what :func:`repro.inference.calibrate` returns:
the ordered window results plus the helpers that regenerate the paper's
figures — time-varying parameter estimates (Figs 4b/5b), posterior ribbons on
reported/true cases and deaths (Figs 4a/5a), and an overall JSON summary for
EXPERIMENTS.md bookkeeping.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.posterior import TrajectoryRibbon, trajectory_ribbon
from ..core.smc import WindowResult
from ..core.window import WindowSchedule
from ..data.sources import CASES
from ..viz.export import write_json

__all__ = ["CalibrationResult", "ParameterTrack", "ScenarioSweepResult"]


@dataclass(frozen=True)
class ParameterTrack:
    """Posterior summary of one parameter across windows (a Fig 4b row)."""

    name: str
    window_labels: tuple[str, ...]
    means: np.ndarray
    medians: np.ndarray
    ci50: np.ndarray  # shape (n_windows, 2)
    ci90: np.ndarray  # shape (n_windows, 2)

    def covers(self, window_index: int, truth: float, level: str = "ci90") -> bool:
        """Did the chosen interval of this window contain the truth?"""
        band = getattr(self, level)
        lo, hi = band[window_index]
        return bool(lo <= truth <= hi)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "window_labels": list(self.window_labels),
            "means": self.means.tolist(),
            "medians": self.medians.tolist(),
            "ci50": self.ci50.tolist(),
            "ci90": self.ci90.tolist(),
        }


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a full sequential calibration run."""

    schedule: WindowSchedule
    windows: tuple[WindowResult, ...]
    config_payload: dict
    wall_time_seconds: float = float("nan")
    #: Index of the last window restored from a checkpoint store, or None
    #: when the run computed every window from scratch.
    resumed_from: int | None = None
    #: Name of the scenario this run calibrated under.  Defaults to
    #: "baseline" so pre-scenario callers (and stored summaries, which
    #: simply lacked the key) keep their meaning unchanged.
    scenario: str = "baseline"

    def __post_init__(self) -> None:
        if len(self.windows) != len(self.schedule):
            raise ValueError("one WindowResult per schedule window required")
        object.__setattr__(self, "windows", tuple(self.windows))

    # ------------------------------------------------------------------ #
    @property
    def n_windows(self) -> int:
        return len(self.windows)

    @property
    def final_posterior(self):
        return self.windows[-1].posterior

    # ------------------------------------------------------------------ #
    def parameter_track(self, name: str) -> ParameterTrack:
        """Per-window posterior summaries of one parameter."""
        labels, means, medians, ci50, ci90 = [], [], [], [], []
        for wr in self.windows:
            post = wr.posterior
            labels.append(wr.window.label())
            means.append(post.weighted_mean(name))
            medians.append(float(post.weighted_quantile(name, 0.5)))
            ci50.append(post.credible_interval(name, 0.5))
            ci90.append(post.credible_interval(name, 0.9))
        return ParameterTrack(name=name, window_labels=tuple(labels),
                              means=np.array(means), medians=np.array(medians),
                              ci50=np.array(ci50), ci90=np.array(ci90))

    def posterior_ribbon(self, channel: str = CASES,
                         quantiles: Sequence[float] = (0.05, 0.25, 0.5, 0.75, 0.95),
                         ) -> TrajectoryRibbon:
        """Credible ribbon over the final posterior's full trajectory history.

        This is the grey-trajectories + shaded-ribbons panel of Figs 4a/5a:
        every surviving particle carries its complete history from simulation
        start, so the ribbon spans burn-in through the last window.
        """
        return trajectory_ribbon(
            self.final_posterior.trajectory_batch("history"), channel,
            quantiles)

    # ------------------------------------------------------------------ #
    def ess_fractions(self) -> np.ndarray:
        return np.array([wr.diagnostics.ess_fraction for wr in self.windows])

    def ensemble_sizes(self) -> np.ndarray:
        """Per-window weighted-cloud sizes — the size-policy trajectory.

        Under the fixed policy this is ``[draws * replicates,
        resample_size * n_continuations, ...]``; under an adaptive policy
        it records every grow/shrink decision the run actually took.
        """
        return np.array([wr.diagnostics.n_particles for wr in self.windows],
                        dtype=np.int64)

    def resample_sizes(self) -> np.ndarray:
        """Per-window resampled-posterior sizes (each is ``resample_size``;
        restored windows report what their store holds)."""
        return np.array([len(wr.posterior) for wr in self.windows],
                        dtype=np.int64)

    def tempered_windows(self) -> list[int]:
        """Indices of windows rescued through a multi-stage tempered bridge.

        A window appears here when its resampling ran through
        :func:`repro.core.adaptive.temper_and_resample` *and* the adaptive
        schedule needed more than one stage — the signature of a window
        degenerate enough to require actual bridging.  A single-stage
        bridge applied the full likelihood in one pass (like the plain
        path, though drawn with the bridge's systematic scheme); those
        windows are visible via each diagnostics' ``tempered`` flag, and
        the realised schedules live in ``temper_schedule``.
        """
        return [wr.index for wr in self.windows
                if wr.diagnostics.temper_stages > 1]

    def total_particle_steps(self) -> int:
        """Total simulation cost of the run in particle-days.

        The budget the adaptive ensemble-size policies trade against
        posterior quality; 0 when produced from diagnostics that predate
        the accounting.
        """
        return int(sum(wr.diagnostics.particle_steps for wr in self.windows))

    def log_evidence(self) -> float:
        """Sum of per-window incremental log-evidence estimates."""
        return float(sum(wr.diagnostics.log_evidence for wr in self.windows))

    def summary(self) -> dict:
        """JSON-safe run summary (parameters, diagnostics, timings)."""
        params = self.windows[0].posterior.param_names
        return {
            "n_windows": self.n_windows,
            "windows": [wr.window.label() for wr in self.windows],
            "wall_time_seconds": self.wall_time_seconds,
            "resumed_from": self.resumed_from,
            "scenario": self.scenario,
            "log_evidence": self.log_evidence(),
            "ensemble_sizes": self.ensemble_sizes().tolist(),
            "resample_sizes": self.resample_sizes().tolist(),
            "tempered_windows": self.tempered_windows(),
            "total_particle_steps": self.total_particle_steps(),
            "diagnostics": [wr.diagnostics.to_dict() for wr in self.windows],
            "parameters": {name: self.parameter_track(name).to_dict()
                           for name in params},
            "config": dict(self.config_payload),
        }

    def save_summary(self, path: str | os.PathLike) -> None:
        write_json(path, self.summary())

    def describe(self) -> str:
        """Multi-line human-readable report (used by examples)."""
        lines = [f"Sequential calibration over {self.n_windows} windows"]
        for wr in self.windows:
            s = wr.summary()
            parts = [f"  {s['window']}:"]
            for name in wr.posterior.param_names:
                p = s[name]
                parts.append(f"{name}={p['mean']:.3f} "
                             f"[{p['ci90'][0]:.3f}, {p['ci90'][1]:.3f}]")
            parts.append(f"ESS%={100 * s['ess_fraction']:.1f}")
            lines.append(" ".join(parts))
        lines.append(f"  total log-evidence: {self.log_evidence():.1f}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ScenarioSweepResult:
    """Per-scenario :class:`CalibrationResult`\\ s from one vectorized sweep.

    ``results`` is in the sweep's canonical (name-sorted) execution order;
    index by scenario name or position.  ``computed_windows`` /
    ``reused_windows`` record the world-line deduplication: windows
    provably bit-identical across scenarios (common random numbers, equal
    effective parameters so far) were simulated once and shared.
    """

    results: tuple[CalibrationResult, ...]
    wall_time_seconds: float = float("nan")
    #: Windows actually simulated vs served from another scenario's
    #: identical world-line.
    computed_windows: int = 0
    reused_windows: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "results", tuple(self.results))
        if not self.results:
            raise ValueError("a sweep result needs at least one scenario")
        names = [r.scenario for r in self.results]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate scenario names in sweep: {names}")

    @property
    def names(self) -> list[str]:
        return [r.scenario for r in self.results]

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, key: int | str) -> CalibrationResult:
        if isinstance(key, str):
            for result in self.results:
                if result.scenario == key:
                    return result
            raise KeyError(f"no scenario {key!r} in sweep; have {self.names}")
        return self.results[key]

    def summary(self) -> dict:
        return {
            "scenarios": self.names,
            "wall_time_seconds": self.wall_time_seconds,
            "computed_windows": self.computed_windows,
            "reused_windows": self.reused_windows,
            "results": {r.scenario: r.summary() for r in self.results},
        }

    def save_summary(self, path: str | os.PathLike) -> None:
        write_json(path, self.summary())
