"""Core SMC/SIS framework — the paper's primary contribution."""

from .adaptive import TemperedResult, temper_and_resample
from .diagnostics import WindowDiagnostics, compute_diagnostics
from .ensemble_control import SIZE_POLICY_NAMES, ESSTargetPolicy
from .observation import ObservationModel
from .particle import Particle, ParticleEnsemble
from .posterior import (TrajectoryRibbon, hpd_region_mass, joint_density_grid,
                        marginal_histogram, trajectory_ribbon)
from .priors import Beta, IndependentProduct, Uniform, paper_first_window_prior
from .proposals import JointJitter, UniformJitter, paper_window_jitter
from .resampling import multinomial_resample, systematic_resample
from .scenarios import (SCENARIO_SETS, SCENARIOS, ScenarioOverride,
                        ScenarioSpec, ScenarioSweep, get_scenario,
                        scenario_set)
from .smc import (BIAS_PARAM, PendingWindow, SequentialCalibrator,
                  SMCConfig, WindowResult)
from .validation import (crps, interval_coverage, posterior_rank,
                         sbc_ranks_uniformity)
from .weights import (effective_sample_size, logsumexp,
                      normalize_log_weights, weight_entropy, weighted_mean,
                      weighted_quantile)
from .window import TimeWindow, WindowSchedule

__all__ = [
    "TemperedResult", "temper_and_resample",
    "SMCConfig", "WindowResult", "SequentialCalibrator", "PendingWindow",
    "BIAS_PARAM",
    "ScenarioOverride", "ScenarioSpec", "ScenarioSweep",
    "SCENARIOS", "SCENARIO_SETS", "get_scenario", "scenario_set",
    "ESSTargetPolicy", "SIZE_POLICY_NAMES",
    "Particle", "ParticleEnsemble",
    "Uniform", "Beta", "IndependentProduct", "paper_first_window_prior",
    "UniformJitter", "JointJitter", "paper_window_jitter",
    "ObservationModel",
    "TimeWindow", "WindowSchedule",
    "multinomial_resample", "systematic_resample",
    "logsumexp", "normalize_log_weights", "effective_sample_size",
    "weight_entropy", "weighted_mean", "weighted_quantile",
    "WindowDiagnostics", "compute_diagnostics",
    "TrajectoryRibbon", "trajectory_ribbon", "marginal_histogram",
    "joint_density_grid", "hpd_region_mass",
    "posterior_rank", "sbc_ranks_uniformity", "interval_coverage", "crps",
]
