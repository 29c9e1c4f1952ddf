"""Forecast scores: the held-theta restart against the next window's cloud.

``repro serve`` publishes a 14-day forecast after every window.  After
every window but the last it is the next window's jittered proposal cloud
(:func:`repro.inference.forecast.forecast_from_cloud`), which the
calibrator simulates anyway; before, it was the posterior restarted with
theta held (:func:`repro.inference.forecast.forecast_from_posterior`).
This bench scores both against the truth's daily infections on the
forecast days, for every non-final window of the perfbench calibration
(the fig4 schedule at 250 draws x 5 replicates, a posterior of 625 and two
continuations per particle), on a fixed grid of truth seeds x calibration
seeds:

* **CRPS** (``repro.core.validation.crps``) per forecast day, over the
  forecast's members, and the scale-free **log CRPS ratio**
  ``ln(cloud / held-theta)`` of each window case's mean CRPS (below 0:
  the cloud is sharper-and-closer);
* **CI90 coverage** (``repro.core.validation.interval_coverage``): the
  share of forecast days whose truth lies in the published 5-95% band,
  and its **error** ``|coverage - 0.90|``, which penalises an
  over-dispersed band as much as an over-confident one;
* the mean **CI90 width**.

Both forecasts read the same calibration, so the scores differ only by
the forecast.  Serial and fully seeded, so every number is deterministic.

The grid holds one regime change (theta 0.25 -> 0.40 at day 62), where
the cloud wins; in the steady windows before it the cloud's band is 3-5x
wider and its CRPS worse.  The gate asserts what holds: the cloud's pooled
coverage error and pooled mean CRPS are no worse than the held-theta
forecast's.  The pooled mean CRPS is set almost entirely by the regime
change window (CRPS in the thousands against about 100 before it); on the
scale-free mean log CRPS ratio the cloud is *worse* than held theta,
pooled and in both steady windows, and the bench does not claim otherwise.
Instead it pins those cloud statistics (mean log CRPS ratio and coverage
error, pooled and per window) against the committed ``BENCH_forecast.json``
so that any further loss of sharpness or calibration fails.

Emits ``BENCH_forecast.json``.  Run standalone
(``python benchmarks/bench_forecast.py``) or under pytest-benchmark
(``pytest benchmarks/bench_forecast.py``); about 20 s on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from _bench_util import write_payload
from repro.core.smc import SequentialCalibrator
from repro.core.validation import crps, interval_coverage
from repro.inference import CalibrationConfig
from repro.inference.forecast import (Forecast, forecast_from_cloud,
                                      forecast_from_posterior)
from repro.sim import make_fig2_ground_truth

WINDOW_BREAKS = (20, 34, 48, 62, 76)
TRUTH_SEEDS = (777, 778, 779)
BASE_SEEDS = (7, 11, 13)
DRAWS = 250
REPLICATES = 5
RESAMPLE = 625
HORIZON = 14
FORECAST_SEED = 0
NOMINAL = 0.90
ARMS = ("held_theta", "next_window_cloud")
#: The committed scores the cloud's statistics are pinned against.
BASELINE = Path(__file__).resolve().parents[1] / "BENCH_forecast.json"
#: How much worse than the baseline a pinned statistic may read.
PIN_TOLERANCE = 0.02


def calibrator(base_seed: int) -> SequentialCalibrator:
    """The perfbench/fig4 calibrator, serial."""
    cfg = CalibrationConfig(
        window_breaks=WINDOW_BREAKS, n_parameter_draws=DRAWS,
        n_replicates=REPLICATES, resample_size=RESAMPLE,
        theta_jitter_width=0.16, rho_jitter_width=0.04, n_continuations=2,
        base_seed=base_seed)
    return SequentialCalibrator(
        base_params=cfg.disease_params(None), prior=cfg.prior(),
        jitter=cfg.jitter(), observation_model=cfg.observation_model(),
        schedule=cfg.schedule(), config=cfg,
        executor=cfg.make_executor())


def score(forecast: Forecast, truth_cases: np.ndarray) -> dict:
    """Mean CRPS, CI90 coverage and mean CI90 width of one forecast over
    its days, against the truth."""
    samples = forecast.batch.channel_matrix("cases")
    ribbon = forecast.ribbon("cases", (0.05, 0.95))
    lo, hi = ribbon.band(0.05), ribbon.band(0.95)
    return {"mean_crps": float(np.mean([crps(samples[:, d], float(y))
                                        for d, y in enumerate(truth_cases)])),
            "ci90_coverage": interval_coverage(truth_cases, lo, hi),
            "mean_ci90_width": float(np.mean(hi - lo)),
            "n_trajectories": len(forecast)}


def run_cell(truth_seed: int, base_seed: int) -> list[dict]:
    """One calibration, both forecasts of every non-final window."""
    truth = make_fig2_ground_truth(seed=truth_seed,
                                   horizon=WINDOW_BREAKS[-1])
    observations = truth.observations()
    calib = calibrator(base_seed)
    windows = list(calib.schedule)
    result = calib.step_window(0, windows[0], observations)
    cases = []
    for index in range(1, len(windows)):
        window = windows[index]
        n_proposals, resample_size = calib.planned_sizes_after(
            result, next_window_days=window.n_days)
        cloud = calib.simulate_window(index, window, result.posterior,
                                      n_proposals=n_proposals)
        start = window.start_day
        truth_cases = np.array([truth.true_cases.value_on(day)
                                for day in range(start, start + HORIZON)])
        forecasts = {
            "held_theta": forecast_from_posterior(
                result.posterior, HORIZON, base_seed=FORECAST_SEED),
            "next_window_cloud": forecast_from_cloud(
                cloud.ensemble, HORIZON, base_seed=FORECAST_SEED)}
        scores = {arm: score(forecasts[arm], truth_cases) for arm in ARMS}
        cases.append({"truth_seed": truth_seed, "base_seed": base_seed,
                      "window": index - 1, "forecast_start_day": start,
                      **scores,
                      "log_crps_ratio": float(np.log(
                          scores["next_window_cloud"]["mean_crps"]
                          / scores["held_theta"]["mean_crps"]))})
        if index + 1 < len(windows):
            result = calib.step_window(
                index, window, observations, result.posterior,
                n_proposals=n_proposals, resample_size=resample_size,
                cloud=cloud)
    return cases


def pool_arm(cases: list[dict], arm: str) -> dict:
    """One arm's scores averaged over ``cases`` (each scores the same
    number of days, so this is the mean over every scored day)."""
    scores = [c[arm] for c in cases]
    pooled = {key: float(np.mean([s[key] for s in scores]))
              for key in ("mean_crps", "ci90_coverage", "mean_ci90_width")}
    pooled["ci90_coverage_error"] = abs(pooled["ci90_coverage"] - NOMINAL)
    pooled["n_trajectories"] = sorted({s["n_trajectories"] for s in scores})
    return pooled


def pool(cases: list[dict]) -> dict:
    """Both arms pooled over ``cases``, with the scale-free comparison."""
    return {**{arm: pool_arm(cases, arm) for arm in ARMS},
            "mean_log_crps_ratio": float(np.mean(
                [c["log_crps_ratio"] for c in cases])),
            "cloud_wins": sum(c["log_crps_ratio"] < 0 for c in cases),
            "cases": len(cases)}


def run_forecast_bench() -> dict:
    """Score both forecasts over the grid; returns the payload."""
    started = time.perf_counter()
    cases = [case for truth_seed in TRUTH_SEEDS for base_seed in BASE_SEEDS
             for case in run_cell(truth_seed, base_seed)]
    wall = time.perf_counter() - started
    per_window = []
    for window in sorted({c["window"] for c in cases}):
        subset = [c for c in cases if c["window"] == window]
        start = subset[0]["forecast_start_day"]
        per_window.append({"window": window,
                           "forecast_days": [start, start + HORIZON],
                           **pool(subset)})
    return {
        "benchmark": "forecast_scores",
        "scenario": {"window_breaks": list(WINDOW_BREAKS),
                     "n_parameter_draws": DRAWS, "n_replicates": REPLICATES,
                     "resample_size": RESAMPLE, "n_continuations": 2,
                     "truth_seeds": list(TRUTH_SEEDS),
                     "base_seeds": list(BASE_SEEDS),
                     "horizon_days": HORIZON,
                     "forecast_seed": FORECAST_SEED,
                     "scored_channel": "cases (true daily infections)",
                     "executor": "serial"},
        "pooled": pool(cases),
        "per_window": per_window,
        "per_case": [
            {"truth_seed": c["truth_seed"], "base_seed": c["base_seed"],
             "window": c["window"],
             **{arm: {key: round(value, 4) if isinstance(value, float)
                      else value for key, value in c[arm].items()}
                for arm in ARMS},
             "log_crps_ratio": round(c["log_crps_ratio"], 4)}
            for c in cases],
        "target": {
            "next_window_cloud_ci90_coverage_error": "<= held_theta (pooled)",
            "next_window_cloud_mean_crps": "<= held_theta (pooled)",
            "pinned": ("mean_log_crps_ratio and next_window_cloud "
                       "ci90_coverage_error, pooled and per window: <= "
                       f"committed BENCH_forecast.json + {PIN_TOLERANCE}"),
            "not_met": ("mean_log_crps_ratio <= 0: the cloud is less sharp "
                        "than held theta outside the regime change")},
        "cpu_count": os.cpu_count(),
        "wall_seconds": wall,
    }


def pinned(payload: dict) -> dict[str, float]:
    """The cloud statistics pinned against the baseline, by name."""
    out = {}
    for label, block in [("pooled", payload["pooled"])] + [
            (f"window {w['window']}", w) for w in payload["per_window"]]:
        out[f"{label} mean_log_crps_ratio"] = block["mean_log_crps_ratio"]
        out[f"{label} cloud ci90_coverage_error"] = \
            block["next_window_cloud"]["ci90_coverage_error"]
    return out


def check_targets(payload: dict, baseline: dict | None) -> None:
    """Assert the gate: the cloud's pooled coverage error and mean CRPS
    are no worse than held theta's, and its pinned statistics no worse
    than ``baseline``'s (skipped when there is no baseline yet)."""
    held = payload["pooled"]["held_theta"]
    cloud = payload["pooled"]["next_window_cloud"]
    assert cloud["ci90_coverage_error"] <= held["ci90_coverage_error"], (
        f"next-window cloud CI90 coverage error "
        f"{cloud['ci90_coverage_error']:.3f} is worse than the held-theta "
        f"forecast's {held['ci90_coverage_error']:.3f}")
    assert cloud["mean_crps"] <= held["mean_crps"], (
        f"next-window cloud mean CRPS {cloud['mean_crps']:.1f} is worse "
        f"than the held-theta forecast's {held['mean_crps']:.1f}")
    if baseline is None:
        return
    fresh, base = pinned(payload), pinned(baseline)
    worse = [f"{name}: {fresh[name]:.4f} > baseline {base[name]:.4f}"
             for name in base if fresh[name] > base[name] + PIN_TOLERANCE]
    assert not worse, ("forecast scores regressed against "
                       f"{BASELINE.name}: " + "; ".join(worse))


def load_baseline() -> dict | None:
    """The committed payload, if there is one."""
    return json.loads(BASELINE.read_text()) if BASELINE.exists() else None


def test_forecast_scores(benchmark, output_dir):
    """pytest-benchmark entry point; asserts the gate."""
    from _bench_util import once

    baseline = load_baseline()
    payload = once(benchmark, run_forecast_bench)
    write_payload(payload, output_dir / "BENCH_forecast.json")
    print("\nForecast score bench:", json.dumps(payload["pooled"], indent=2))
    check_targets(payload, baseline)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path,
                        default=Path("BENCH_forecast.json"))
    args = parser.parse_args(argv)
    baseline = load_baseline()
    payload = run_forecast_bench()
    write_payload(payload, args.output)
    for block in payload["per_window"] + [payload["pooled"]]:
        label = (f"days {block['forecast_days'][0]}-"
                 f"{block['forecast_days'][1] - 1}"
                 if "window" in block else "pooled")
        for arm in ARMS:
            s = block[arm]
            print(f"{label:>12} {arm:>17}: CRPS {s['mean_crps']:8.1f} | "
                  f"CI90 coverage {s['ci90_coverage']:.2f} "
                  f"(error {s['ci90_coverage_error']:.2f}) | "
                  f"CI90 width {s['mean_ci90_width']:8.1f}")
        print(f"{'':>12} mean log CRPS ratio (cloud/held) "
              f"{block['mean_log_crps_ratio']:+.3f}; cloud CRPS lower in "
              f"{block['cloud_wins']} of {block['cases']} window case(s)")
    print(f"({payload['wall_seconds']:.1f}s)")
    check_targets(payload, baseline)


if __name__ == "__main__":
    main()
