"""Tempered rescue of degenerate windows.

The paper's section VI warns that SIS weights can "concentrate on just a
few draws".  When that happens inside a window, a single multinomial
resampling pass collapses the posterior onto a handful of ancestors and the
next window inherits a starved parent set.  The calibrator can instead
route such windows through the staged tempered bridge
(``repro.core.adaptive.temper_and_resample``): the likelihood is raised
through adaptively chosen exponents ``0 < beta_1 < ... < 1``, reweighting
and resampling among the window's *already simulated* trajectories at each
stage — so the rescue costs zero extra particle-steps — with a low-variance
systematic resampler keeping per-stage noise down.

This example runs a deliberately degenerate scenario (a likelihood sharp
enough that every window's ESS fraction collapses below the 5% degeneracy
threshold) two ways — the plain pass and the tempered rescue — and prints
each run's per-window bridge schedules, unique ancestors, and theta tracks
against the known truth.
Tempered runs stay bit-reproducible: the bridge draws from the same
window-indexed resampling stream as the plain pass.

Run:  python examples/tempered_rescue.py
"""

from __future__ import annotations

from repro import CalibrationConfig, calibrate
from repro.data import PiecewiseConstant
from repro.seir import DiseaseParameters
from repro.sim import make_ground_truth


def run(truth, label: str, **overrides):
    config = CalibrationConfig(
        window_breaks=(12, 20, 28, 36, 44, 52),
        n_parameter_draws=150, n_replicates=2, resample_size=300,
        sigma=0.5,  # sharp likelihood: every window degenerates
        base_seed=44, **overrides)
    result = calibrate(truth.observations(), config,
                       base_params=truth.params)
    print(f"\n{label}")
    print("  posterior sizes  : "
          + ", ".join(str(int(n)) for n in result.resample_sizes()))
    print("  tempered windows : "
          f"{result.tempered_windows() or 'none'}")
    track = result.parameter_track("theta")
    covered = 0
    for w, wr in enumerate(result.windows):
        d = wr.diagnostics
        lo, hi = track.ci90[w]
        true_theta = truth.theta_true(wr.window.end_day - 1)
        covered += int(lo <= true_theta <= hi)
        bridge = (f"{d.temper_stages}-stage bridge"
                  if d.tempered else "plain pass")
        print(f"  {wr.window.label():>12}: ESS {100 * d.ess_fraction:5.1f}% | "
              f"{bridge:>15} | {d.unique_ancestors:3d} ancestors | "
              f"theta [{lo:.3f}, {hi:.3f}] (truth {true_theta:.2f})")
    print(f"  CI90 theta coverage: {covered}/{len(result.windows)} | "
          f"{result.total_particle_steps()} particle-steps")
    return result


def main() -> None:
    params = DiseaseParameters(population=60_000, initial_exposed=120)
    truth = make_ground_truth(
        params=params, horizon=52, seed=99,
        theta_schedule=PiecewiseConstant(breakpoints=(20, 36),
                                         values=(0.32, 0.22, 0.28)),
        rho_schedule=PiecewiseConstant(breakpoints=(20, 36),
                                       values=(0.6, 0.85, 0.8)))

    plain = run(truth, "plain multinomial pass (the classic behaviour)")

    tempered = run(truth, "tempered rescue (temper_degenerate=True)",
                   temper_degenerate=True, temper_ess_floor=0.25)

    assert plain.total_particle_steps() == tempered.total_particle_steps()
    print("\nThe rescue is free in particle-steps: both runs simulated "
          f"{plain.total_particle_steps()} particle-days.  "
          "benchmarks/bench_tempering.py asserts the coverage win in CI.")


if __name__ == "__main__":
    main()
