"""Core SMC/SIS framework — the paper's primary contribution."""

from .adaptive import TemperedResult, temper_and_resample
from .bias import BinomialBiasModel
from .diagnostics import WindowDiagnostics, assess, compute_diagnostics
from .ensemble_control import (SIZE_POLICY_NAMES, BudgetPolicy,
                               EnsembleSizePolicy, ESSTargetPolicy, FixedSize,
                               make_size_policy, resolve_size_policy)
from .likelihood import (GaussianTransformLikelihood, Likelihood,
                         MultiSourceLikelihood, NegativeBinomialLikelihood,
                         PoissonLikelihood, paper_likelihood)
from .observation import ObservationModel, SourceModel, paper_observation_model
from .particle import Particle, ParticleEnsemble
from .posterior import (TrajectoryRibbon, hpd_region_mass, joint_density_grid,
                        marginal_histogram, trajectory_ribbon)
from .priors import (Beta, Dirac, Distribution, IndependentProduct, LogNormal,
                     TruncatedNormal, Uniform, paper_first_window_prior)
from .proposals import (JitterKernel, JointJitter, NoJitter, UniformJitter,
                        paper_window_jitter)
from .resampling import (RESAMPLERS, get_resampler, multinomial_resample,
                         residual_resample, stratified_resample,
                         systematic_resample)
from .scenarios import (SCENARIO_SETS, SCENARIOS, ScenarioOverride,
                        ScenarioRegistry, ScenarioSpec, ScenarioSweep,
                        get_scenario, register_scenario, scenario_set)
from .smc import (BIAS_PARAM, DEFAULT_PARAM_MAP, PendingWindow,
                  SequentialCalibrator, SMCConfig, WindowResult)
from .transforms import (ANSCOMBE, IDENTITY, LOG1P, SQRT, TRANSFORMS,
                         Transform, get_transform)
from .validation import (crps, interval_coverage, posterior_rank,
                         sbc_ranks_uniformity)
from .weights import (effective_sample_size, ess_fraction, logsumexp,
                      normalize_log_weights, weight_entropy, weighted_mean,
                      weighted_quantile, weighted_variance)
from .window import TimeWindow, WindowSchedule, paper_window_schedule

__all__ = [
    "TemperedResult", "temper_and_resample",
    "SMCConfig", "WindowResult", "SequentialCalibrator", "PendingWindow",
    "BIAS_PARAM", "DEFAULT_PARAM_MAP",
    "ScenarioOverride", "ScenarioSpec", "ScenarioRegistry", "ScenarioSweep",
    "SCENARIOS", "SCENARIO_SETS", "register_scenario", "get_scenario",
    "scenario_set",
    "EnsembleSizePolicy", "FixedSize", "ESSTargetPolicy", "BudgetPolicy",
    "SIZE_POLICY_NAMES", "make_size_policy", "resolve_size_policy",
    "Particle", "ParticleEnsemble",
    "Distribution", "Uniform", "Beta", "LogNormal", "TruncatedNormal",
    "Dirac", "IndependentProduct", "paper_first_window_prior",
    "JitterKernel", "UniformJitter", "NoJitter", "JointJitter",
    "paper_window_jitter",
    "Likelihood", "GaussianTransformLikelihood", "PoissonLikelihood",
    "NegativeBinomialLikelihood", "MultiSourceLikelihood", "paper_likelihood",
    "BinomialBiasModel",
    "ObservationModel", "SourceModel", "paper_observation_model",
    "TimeWindow", "WindowSchedule", "paper_window_schedule",
    "Transform", "SQRT", "LOG1P", "IDENTITY", "ANSCOMBE", "TRANSFORMS",
    "get_transform",
    "RESAMPLERS", "get_resampler", "multinomial_resample",
    "systematic_resample", "stratified_resample", "residual_resample",
    "logsumexp", "normalize_log_weights", "effective_sample_size",
    "ess_fraction", "weight_entropy", "weighted_mean", "weighted_quantile",
    "weighted_variance",
    "WindowDiagnostics", "compute_diagnostics", "assess",
    "TrajectoryRibbon", "trajectory_ribbon", "marginal_histogram",
    "joint_density_grid", "hpd_region_mass",
    "posterior_rank", "sbc_ranks_uniformity", "interval_coverage", "crps",
]
