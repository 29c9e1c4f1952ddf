"""Figure 3 — single-window importance-sampling calibration (section V-B).

Regenerates the paper's first experiment: calibrate to reported case counts
over days 20-33 only, with theta ~ U(0.1, 0.5) and rho ~ Beta(4, 1), common
random seeds across parameter draws, the Gaussian likelihood on square-root
counts (sigma = 1), and multinomial resampling to a posterior sample.  It is
the sequential calibrator's first window, run as a one-window calibration.

Paper shapes reproduced (Fig 3 panels):

* posterior trajectories concentrate around the observed counts relative to
  the prior cloud (left panel);
* the theta posterior concentrates sharply relative to its uniform prior
  (right panel);
* the rho posterior moves less than theta's — the strong Beta(4, 1) prior
  dominates ("the posterior on rho exhibits less influence compared to that
  on theta", section V-B) (center panel).
"""

from __future__ import annotations

import numpy as np

from _bench_util import once
from repro.core import (marginal_histogram, paper_first_window_prior,
                        trajectory_ribbon)
from repro.inference import CalibrationConfig, calibrate
from repro.seir import Trajectory, chicago_defaults
from repro.viz import write_json, write_ribbon_csv


def observed_scale_trajectories(posterior, window):
    """Per-particle simulated *observed* cases: mean-thin true cases by the
    particle's own rho (the series the paper plots against the black dots)."""
    out = []
    for p in posterior:
        seg = p.segment.window(*window)
        thinned = p.params["rho"] * seg.infections
        zero = np.zeros_like(thinned)
        out.append(Trajectory(seg.start_day, thinned, zero, zero, zero))
    return out

WINDOW = (20, 34)


def test_fig3_single_window_calibration(benchmark, scale, output_dir,
                                        executor, paper_truth):
    prior = paper_first_window_prior()

    def run():
        cfg = CalibrationConfig(
            window_breaks=WINDOW, n_parameter_draws=scale.fig3_draws,
            n_replicates=scale.fig3_replicates,
            resample_size=scale.fig3_resample, base_seed=101)
        [window] = calibrate(paper_truth.observations(), cfg,
                             base_params=chicago_defaults(),
                             executor=executor).windows
        return window

    result = once(benchmark, run)
    posterior = result.posterior

    # --- figure data -----------------------------------------------------
    rng = np.random.Generator(np.random.PCG64(0))
    theta_prior = prior.marginal("theta").sample(20_000, rng)
    rho_prior = prior.marginal("rho").sample(20_000, rng)
    theta_post = posterior.values("theta")
    rho_post = posterior.values("rho")

    true_ribbon = trajectory_ribbon(
        [p.segment.window(*WINDOW) for p in posterior], "cases")
    write_ribbon_csv(output_dir / "fig3_true_case_trajectories.csv",
                     true_ribbon,
                     truth=paper_truth.true_cases.window(*WINDOW))
    ribbon = trajectory_ribbon(
        observed_scale_trajectories(posterior, WINDOW), "cases")
    write_ribbon_csv(output_dir / "fig3_posterior_trajectories.csv", ribbon,
                     truth=paper_truth.observed_cases.window(*WINDOW))
    summary = {
        "window": "Days 20-33",
        "n_prior_trajectories": scale.fig3_draws * scale.fig3_replicates,
        "posterior_sample": scale.fig3_resample,
        "ess": result.diagnostics.ess,
        "ess_fraction": result.diagnostics.ess_fraction,
        "theta": {
            "truth": paper_truth.theta_true(26),
            "prior_mean": float(theta_prior.mean()),
            "prior_sd": float(theta_prior.std()),
            "posterior_mean": posterior.weighted_mean("theta"),
            "posterior_sd": float(theta_post.std()),
            "ci90": posterior.credible_interval("theta", 0.9),
        },
        "rho": {
            "truth": paper_truth.rho_true(26),
            "prior_mean": float(rho_prior.mean()),
            "prior_sd": float(rho_prior.std()),
            "posterior_mean": posterior.weighted_mean("rho"),
            "posterior_sd": float(rho_post.std()),
            "ci90": posterior.credible_interval("rho", 0.9),
        },
    }
    write_json(output_dir / "fig3_summary.json", summary)
    for name, post, support in (("theta", theta_post, (0.0, 0.6)),
                                ("rho", rho_post, (0.0, 1.0))):
        edges, dens = marginal_histogram(post, bins=30, support=support)
        np.savetxt(output_dir / f"fig3_{name}_posterior_density.csv",
                   np.column_stack([edges[:-1], edges[1:], dens]),
                   delimiter=",", header="lo,hi,density", comments="")
    print("\nFig 3 summary:", summary)

    # --- shape assertions --------------------------------------------------
    t = summary["theta"]
    # theta concentrates sharply vs the uniform prior...
    assert t["posterior_sd"] < 0.5 * t["prior_sd"]
    # ...near the window-1 truth (0.30).
    assert abs(t["posterior_mean"] - t["truth"]) < 0.08
    r = summary["rho"]
    # rho is prior-dominated: posterior shift relative to prior dispersion
    # is weaker than theta's shift (the paper's center-panel observation).
    theta_shrink = t["posterior_sd"] / t["prior_sd"]
    rho_shrink = r["posterior_sd"] / r["prior_sd"]
    assert theta_shrink < rho_shrink + 0.35
    # posterior trajectory band hugs the observations: the observed counts
    # fall inside the 90% ribbon for most window days.
    obs = paper_truth.observed_cases.window(*WINDOW).values
    assert ribbon.coverage_of(obs, 0.05, 0.95) >= 0.5
