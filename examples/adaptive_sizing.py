"""Adaptive ensemble sizing: spend particles only where the data need them.

The paper's section VI warns that SIS weights can "concentrate on just a
few draws"; the classic fix is a bigger ensemble, but a fixed size pays
that cost in *every* window.  The adaptive ensemble-size controller
(``repro.core.ensemble_control``) instead watches each window's
post-weighting ESS fraction and resizes the next window's proposal cloud:
grow when the weights concentrate, shrink once the posterior has
converged, always within ``[n_min, n_max]``.

This example runs the same synthetic scenario two ways — fixed size and an
ESS-target policy — and prints each run's per-window cloud sizes, total
particle-steps (particle-days of simulation), and posterior tracks.  Adaptive runs stay bit-reproducible:
rerunning with the same base seed, policy, and shard layout reproduces
identical posteriors.

Run:  python examples/adaptive_sizing.py
"""

from __future__ import annotations

from repro import CalibrationConfig, calibrate
from repro.data import PiecewiseConstant
from repro.seir import DiseaseParameters
from repro.sim import make_ground_truth


def run(truth, label: str, **overrides):
    config = CalibrationConfig(
        window_breaks=(12, 20, 28, 36, 44, 52),
        n_parameter_draws=200, n_replicates=2, resample_size=400,
        sigma=2.0, base_seed=41, **overrides)
    result = calibrate(truth.observations(), config,
                       base_params=truth.params)
    sizes = ", ".join(str(int(n)) for n in result.ensemble_sizes())
    print(f"\n{label}")
    print(f"  per-window cloud sizes : {sizes}")
    print(f"  total particle-steps   : {result.total_particle_steps()}")
    print(f"  ESS fractions          : "
          + ", ".join(f"{f:.2f}" for f in result.ess_fractions()))
    track = result.parameter_track("theta")
    for w, wr in enumerate(result.windows):
        lo, hi = track.ci90[w]
        true_theta = truth.theta_true(wr.window.end_day - 1)
        print(f"  {wr.window.label():>12}: theta {track.means[w]:.3f} "
              f"[{lo:.3f}, {hi:.3f}] (truth {true_theta:.2f})")
    return result


def main() -> None:
    params = DiseaseParameters(population=60_000, initial_exposed=120)
    truth = make_ground_truth(
        params=params, horizon=52, seed=99,
        theta_schedule=PiecewiseConstant(breakpoints=(20, 36),
                                         values=(0.32, 0.22, 0.28)),
        rho_schedule=PiecewiseConstant(breakpoints=(20, 36),
                                       values=(0.6, 0.85, 0.8)))

    fixed = run(truth, "fixed size (the classic behaviour)")

    # Grow below 5% ESS, shrink above 20%, never leave [100, 1600].
    adaptive = run(truth, "ESS-target policy (size_policy='ess')",
                   size_policy="ess",
                   size_policy_options={"target_low": 0.05,
                                        "target_high": 0.2,
                                        "n_min": 100, "n_max": 1600})

    saved = 1 - adaptive.total_particle_steps() / fixed.total_particle_steps()
    print(f"\nESS-target run saved {saved:.0%} of the fixed baseline's "
          "particle-steps at comparable posterior coverage "
          "(benchmarks/bench_adaptive.py asserts this tradeoff in CI).")


if __name__ == "__main__":
    main()
