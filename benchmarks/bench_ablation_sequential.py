"""Sequential-vs-single-shot ablation (the paper's core motivation).

Section IV-C argues for calibrating window by window: a single constant
parameter cannot track a time-varying epidemic, so one-shot importance
sampling over the full horizon (a one-window calibration spanning every
window) degenerates.  This bench runs both schemes at a matched simulation
budget on a truth whose theta drops mid-horizon and compares (a) ESS
fractions and (b) tracking error of the theta estimate.

Town-scale population keeps the budget small; the contrast is structural,
not scale-dependent.
"""

from __future__ import annotations

import numpy as np

from _bench_util import once
from repro.data import PiecewiseConstant
from repro.inference import CalibrationConfig, calibrate
from repro.seir import DiseaseParameters
from repro.sim import make_ground_truth
from repro.viz import write_json

PARAMS = DiseaseParameters(population=80_000, initial_exposed=160)
THETA_SCHEDULE = PiecewiseConstant(breakpoints=(22,), values=(0.34, 0.20))
RHO_SCHEDULE = PiecewiseConstant.constant(0.7)
HORIZON = 34
WINDOWS = (10, 22, 34)


def test_sequential_vs_single_shot(benchmark, output_dir, executor):
    truth = make_ground_truth(params=PARAMS, horizon=HORIZON, seed=404,
                              theta_schedule=THETA_SCHEDULE,
                              rho_schedule=RHO_SCHEDULE)

    # Matched budgets: sequential spends draws*reps (w1) + resample (w2);
    # single-shot spends the same total on full-horizon runs.  Full-horizon
    # runs are ~HORIZON/window-length times longer, so the single-shot run
    # gets the same *trajectory-day* budget, which favours it if anything.
    n_draws, n_reps, resample = 150, 3, 200

    def run(window_breaks):
        cfg = CalibrationConfig(
            window_breaks=window_breaks, n_parameter_draws=n_draws,
            n_replicates=n_reps, resample_size=resample, base_seed=31,
            theta_jitter_width=0.08)
        return calibrate(truth.observations(), cfg, base_params=PARAMS,
                         executor=executor)

    seq = once(benchmark, lambda: run(WINDOWS))
    [single] = run((WINDOWS[0], WINDOWS[-1])).windows

    seq_track = seq.parameter_track("theta")
    seq_err = float(np.mean([
        abs(seq_track.means[0] - THETA_SCHEDULE(15)),
        abs(seq_track.means[1] - THETA_SCHEDULE(28)),
    ]))
    single_theta = single.posterior.weighted_mean("theta")
    single_err = float(np.mean([
        abs(single_theta - THETA_SCHEDULE(15)),
        abs(single_theta - THETA_SCHEDULE(28)),
    ]))

    summary = {
        "sequential": {
            "ess_fractions": seq.ess_fractions().tolist(),
            "theta_means": seq_track.means.tolist(),
            "tracking_error": seq_err,
        },
        "single_shot": {
            "ess_fraction": single.diagnostics.ess_fraction,
            "theta_mean": single_theta,
            "tracking_error": single_err,
        },
        "theta_truth_by_segment": [THETA_SCHEDULE(15), THETA_SCHEDULE(28)],
    }
    write_json(output_dir / "ablation_sequential.json", summary)
    print("\nsequential vs single-shot:")
    print(f"  sequential: theta {seq_track.means.round(3).tolist()} "
          f"(truth [0.34, 0.20]), ESS% "
          f"{(100 * seq.ess_fractions()).round(1).tolist()}, "
          f"tracking err {seq_err:.3f}")
    print(f"  single-shot: theta {single_theta:.3f} fixed for both segments, "
          f"ESS% {100 * single.diagnostics.ess_fraction:.1f}, "
          f"tracking err {single_err:.3f}")

    # The single-shot estimate is one number for two regimes: its tracking
    # error cannot beat the sequential scheme's.
    assert seq_err < single_err + 0.02
    # Sequential theta must actually move between windows (truth drops 0.14).
    assert seq_track.means[0] - seq_track.means[1] > 0.04
