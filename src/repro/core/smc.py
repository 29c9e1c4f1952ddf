"""Sequential importance sampling calibrator (paper Algorithm 1 + eq. 5).

The driver implements the paper's two-loop structure:

* **outer loop** over calibration windows, moving the epidemic forward in
  time and carrying posterior particles (with their checkpoints) from one
  window to the next;
* **inner loop** per window: sample parameters, simulate trajectories in
  parallel, weight them against the window's observations, and resample.

Window 1 draws ``n_parameter_draws`` parameter tuples from the prior and
replicates each across a *common* seed set (``n_replicates`` trajectories per
tuple, same seeds for every tuple — the paper's variance-control device).
Every later window starts from the previous window's resampled posterior:
each particle's parameters are jittered (symmetric uniform for theta,
asymmetric for rho), its stored checkpoint is restarted with the overridden
transmission rate and a fresh seed, and only the new window is simulated —
the computational saving checkpointing buys (paper section III-B).

Weights follow eq. (5): conditioned on a sample from the previous posterior,
the incremental weight is the likelihood of the *new* window's observations
alone.  Because the jittered draws constitute the next window's prior (the
paper's construction), no proposal-density correction is applied.

Each window runs one production path, four phases long
(:meth:`SequentialCalibrator.step_window`): *propose* the cloud
(:meth:`~SequentialCalibrator.propose_window`), *simulate* it as stacked
``(n_particles, n_compartments)`` state matrices on the
:class:`~repro.seir.batch_engine.BatchedBinomialLeapEngine`, *assemble* the
columnar :class:`ParticleEnsemble` from the concatenated shard outputs
(:meth:`~SequentialCalibrator.assemble_window`), and *weigh* it
(:meth:`~SequentialCalibrator.weigh_window`).  Particles whose structural
parameters differ (anything beyond the transmission rate, e.g. a
``param_map`` targeting ``mild_fraction``) are grouped by structural
identity and each group is stepped as its own batch.  Weighting slices the
segments once per source (``ParticleEnsemble.segment_matrix``), thins them
with one binomial call (``BinomialBiasModel.apply_batch``) and scores them
with one vectorised likelihood evaluation per source
(``ObservationModel.loglik_ensemble``).  All per-window ancillary randomness
(jitter, bias thinning, resampling) draws from window-indexed streams of the
:class:`~repro.seir.seeding.SeedSequenceBank`, so no two windows ever share
a random stream.  No per-particle object is built on this path: resampling
gathers columns by index, continuations restart the gathered parents'
restart rows, and the checkpoint store writes those rows as they are.

Window sizes adapt through the size policies (``SMCConfig.size_policy``
for the next proposal cloud, ``SMCConfig.resample_size_policy`` for the
posterior), degenerate windows can be rescued by the tempered bridge of
:func:`repro.core.adaptive.temper_and_resample`
(``SMCConfig.temper_degenerate``), and simulation is sharded across the
executor (:mod:`repro.hpc.sharding`); :class:`SMCConfig` documents each.
Every shard draws from its own batch stream keyed by the ordered seed
vector of its slice, so a run is bit-reproducible given ``(base_seed,
shard layout)`` and identical across executors for the same layout (see
the batch RNG contract in :mod:`repro.seir.batch_engine`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, ClassVar, Mapping

import numpy as np

from ..data.sources import ObservationSet
from ..hpc.checkpoint_io import CheckpointStore
from ..hpc.executor import Executor, SerialExecutor
from ..hpc.faults import RetryPolicy, ShardFailure
from ..hpc.sharding import (GroupShards, GroupSpec, build_group_specs,
                            reassemble, resolve_shard_layout,
                            simulate_groups, structural_groups,
                            validate_shard_policy)
from ..seir.batch_engine import BatchedBinomialLeapEngine
from ..seir.checkpoint import CheckpointError, StackedLeapState
from ..seir.parameters import DiseaseParameters, ParameterOverride
from ..seir.seeding import SeedSequenceBank, register_ancillary_purpose
from .adaptive import temper_and_resample
from .diagnostics import (DEGENERACY_THRESHOLD, WindowDiagnostics,
                          compute_diagnostics)
from .ensemble_control import (BudgetPolicy, EnsembleSizePolicy, FixedSize,
                               resolve_size_policy)
from .observation import ObservationModel
from .particle import ParticleEnsemble
from .priors import IndependentProduct
from .proposals import JointJitter
from .resampling import get_resampler
from .weights import normalize_log_weights
from .window import TimeWindow, WindowSchedule

if TYPE_CHECKING:  # imported lazily to avoid a cycle with core.scenarios
    from .scenarios import ScenarioSpec

__all__ = ["SMCConfig", "WindowResult", "PendingWindow",
           "SequentialCalibrator", "BIAS_PARAM", "DEFAULT_PARAM_MAP"]

#: Reserved name of the reporting-bias parameter in priors/jitters.
BIAS_PARAM = "rho"

#: Default mapping from prior parameter names to DiseaseParameters fields.
DEFAULT_PARAM_MAP: dict[str, str] = {"theta": "transmission_rate"}

# RNG stream purposes (see SeedSequenceBank.ancillary_generator).  Each is
# registered in the stream-domain registry, which raises at import time if a
# purpose value is ever reused by another consumer.
_PURPOSE_PRIOR = register_ancillary_purpose(
    "smc_prior", 0, description="first-window prior sampling")
_PURPOSE_BIAS = register_ancillary_purpose(
    "smc_bias", 1, description="per-window reporting-bias thinning")
_PURPOSE_RESAMPLE = register_ancillary_purpose(
    "smc_resample", 2, description="per-window resampling / tempered bridge")
_PURPOSE_JITTER = register_ancillary_purpose(
    "smc_jitter", 3, description="per-window proposal jitter")


@dataclass(frozen=True)
class SMCConfig:
    """Tuning knobs of the sequential calibrator.

    The paper-scale configuration is ``n_parameter_draws=25_000,
    n_replicates=20, resample_size=10_000``; defaults here are laptop-scale
    with identical algorithmic behaviour.

    ``engine`` is a read-only class constant, not a field: every window is
    simulated by the batched ensemble engine as stacked state matrices,
    sharded across the executor.  ``engine_options`` are that engine's
    keywords (e.g. ``{"steps_per_day": 4}``).

    ``shard_size``/``n_shards`` control the sharded dispatch:
    ``n_shards="auto"`` (the default) cuts each structural group into one
    shard per executor worker — a serial executor keeps the in-process
    single-shard fast path — while an explicit ``shard_size`` (members per
    shard; wins over ``n_shards``) or integer ``n_shards`` pins the layout,
    making results bit-reproducible across executors (see
    :mod:`repro.hpc.sharding`).

    ``size_policy`` selects the adaptive ensemble-size controller consulted
    after every window (:mod:`repro.core.ensemble_control`): ``"fixed"``
    (the default — every continuation window proposes
    ``resample_size * n_continuations`` draws, the classic behaviour),
    ``"ess"`` (:class:`~repro.core.ensemble_control.ESSTargetPolicy`: grow
    the cloud when the post-weighting ESS fraction falls below its target
    band, shrink it when the band is exceeded, clamped to
    ``[n_min, n_max]``), ``"budget"``
    (:class:`~repro.core.ensemble_control.BudgetPolicy`: cap the cloud at a
    per-window particle-step budget), or any object implementing
    :class:`~repro.core.ensemble_control.EnsembleSizePolicy`.
    ``size_policy_options`` are the named policy's constructor keywords
    (e.g. ``{"target_high": 0.4, "n_min": 100}``).  Policies are
    deterministic, so adaptive runs remain bit-reproducible for a fixed
    ``(base_seed, size_policy, shard layout)`` and identical across
    executors; the first window always uses
    ``n_parameter_draws * n_replicates`` prior draws.

    ``resample_size_policy`` drives the *posterior* size the same way
    ``size_policy`` drives the proposal cloud: it is consulted per window
    with that window's pre-resampling weight diagnostics and decides how
    many particles the resampled posterior keeps (``"fixed"``, the default,
    keeps ``resample_size`` throughout).  Both policies compose — a grow
    decision and a tempering pass can land on the same window — because
    the continuation machinery is size-agnostic (parents are cycled from
    whatever posterior size arrives, restart seeds are keyed by
    ``(window, draw_index)``).

    ``temper_degenerate`` routes a window whose pre-resampling ESS
    fraction falls below ``temper_threshold`` (default: the
    :data:`~repro.core.diagnostics.DEGENERACY_THRESHOLD`) through the
    tempered bridge of :func:`repro.core.adaptive.temper_and_resample`
    instead of one resampling pass.  The bridge raises the likelihood
    through exponents, resampling the already-simulated trajectories at
    each stage; each exponent is the largest that keeps the incremental
    ESS of the population the previous stage resampled at or above
    ``temper_ess_floor``, and the bridge ends once the remaining jump to 1
    meets that floor.  It draws from the window's resampling stream, so
    runs stay bit-reproducible per ``(base_seed, shard layout)``; the
    window's :class:`~repro.core.diagnostics.WindowDiagnostics` records the
    schedule, and ``temper_truncated`` if the stage cap forced the last
    jump.  ``temper_resampler`` (default ``"systematic"``) resamples inside
    the bridge: it resamples at every stage, so a multinomial scheme
    compounds noise and can end up noisier than the single pass.

    ``retry`` (a :class:`~repro.hpc.faults.RetryPolicy`, default ``None`` =
    the legacy fail-fast behaviour) makes every window's sharded
    dispatch fault-tolerant: failed / timed-out / dropped / corrupted
    shards are re-executed with deterministic backoff, falling back to
    serial in-process execution on the final attempt.  Because shard
    outputs are pure functions of ``(base_seed, shard layout)``, retried
    runs stay bit-identical to fault-free ones (see
    ``docs/fault_tolerance.md``).
    """

    n_parameter_draws: int = 500
    n_replicates: int = 5
    resample_size: int = 500
    n_continuations: int = 1
    resampler: str = "multinomial"
    engine: ClassVar[str] = BatchedBinomialLeapEngine.name
    engine_options: dict = field(default_factory=dict)
    shard_size: int | None = None
    n_shards: int | str = "auto"
    base_seed: int = 20240215
    keep_weighted_ensemble: bool = False
    size_policy: str | EnsembleSizePolicy = "fixed"
    size_policy_options: dict = field(default_factory=dict)
    resample_size_policy: str | EnsembleSizePolicy = "fixed"
    resample_size_policy_options: dict = field(default_factory=dict)
    temper_degenerate: bool = False
    temper_threshold: float = DEGENERACY_THRESHOLD
    temper_ess_floor: float = 0.5
    temper_resampler: str = "systematic"
    retry: RetryPolicy | None = None

    def __post_init__(self) -> None:
        if self.retry is not None and not isinstance(self.retry, RetryPolicy):
            raise ValueError(
                f"retry must be a RetryPolicy or None, got {self.retry!r}")
        for name in ("n_parameter_draws", "n_replicates", "resample_size",
                     "n_continuations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        resolve_size_policy(self.size_policy, self.size_policy_options)
        resolve_size_policy(self.resample_size_policy,
                            self.resample_size_policy_options)
        if not 0.0 <= self.temper_threshold <= 1.0:
            raise ValueError("temper_threshold must lie in [0, 1]")
        if not 0.0 < self.temper_ess_floor < 1.0:
            raise ValueError("temper_ess_floor must lie in (0, 1)")
        validate_shard_policy(self.shard_size, self.n_shards)
        get_resampler(self.resampler)  # validate eagerly
        get_resampler(self.temper_resampler)

    def size_policy_instance(self) -> EnsembleSizePolicy:
        """The configured ensemble-size controller, ready to consult."""
        return resolve_size_policy(self.size_policy, self.size_policy_options)

    def resample_size_policy_instance(self) -> EnsembleSizePolicy:
        """The configured posterior-size controller, ready to consult."""
        return resolve_size_policy(self.resample_size_policy,
                                   self.resample_size_policy_options)

    @property
    def first_window_ensemble_size(self) -> int:
        return self.n_parameter_draws * self.n_replicates

    @property
    def continuation_ensemble_size(self) -> int:
        return self.resample_size * self.n_continuations


@dataclass(frozen=True)
class WindowResult:
    """Everything the calibrator records about one window.

    Attributes
    ----------
    index:
        Window index (0-based).
    window:
        The day range calibrated.
    posterior:
        Resampled, equally weighted posterior ensemble.
    diagnostics:
        Weight-degeneracy diagnostics of the pre-resampling ensemble.
    weighted_ensemble:
        The full weighted ensemble (kept only when
        ``SMCConfig.keep_weighted_ensemble`` is set; memory-heavy).
    """

    index: int
    window: TimeWindow
    posterior: ParticleEnsemble
    diagnostics: WindowDiagnostics
    weighted_ensemble: ParticleEnsemble | None = None

    def summary(self) -> dict:
        """Posterior parameter summary used by benches and examples."""
        out: dict = {"window": self.window.label(),
                     "ess_fraction": self.diagnostics.ess_fraction,
                     "n_particles": self.diagnostics.n_particles,
                     "particle_steps": self.diagnostics.particle_steps,
                     "resample_size": len(self.posterior),
                     "temper_stages": self.diagnostics.temper_stages,
                     "shard_failures": self.diagnostics.shard_failures,
                     "shard_failure_causes":
                         list(self.diagnostics.shard_failure_causes)}
        for name in self.posterior.param_names:
            lo50, hi50 = self.posterior.credible_interval(name, 0.5)
            lo90, hi90 = self.posterior.credible_interval(name, 0.9)
            out[name] = {
                "mean": self.posterior.weighted_mean(name),
                "median": float(self.posterior.weighted_quantile(name, 0.5)),
                "ci50": (lo50, hi50),
                "ci90": (lo90, hi90),
            }
        return out


@dataclass(frozen=True)
class PendingWindow:
    """One window's proposal cloud, built but not yet simulated.

    Everything the proposal phase of the split-phase window API decided:
    the members' parameter-draw columns, seeds and effective
    :class:`~repro.seir.parameters.DiseaseParameters`, their structural
    grouping and ready-to-dispatch :class:`~repro.hpc.sharding.GroupSpec`
    list, and (for continuations; ``None`` for window 0) the previous
    posterior gathered by member as ``parents``.  All per-window randomness
    is consumed while building it and simulation streams are keyed by the
    specs' seed vectors, so a multi-scenario sweep can pool many windows'
    specs into one flattened dispatch
    (:func:`~repro.hpc.sharding.simulate_group_sets`) bit-identically.
    """

    index: int
    window: TimeWindow
    sim_days: int
    groups: list[list[int]]
    specs: list[GroupSpec]
    member_draws: dict[str, np.ndarray]
    member_seeds: np.ndarray
    member_params: list[DiseaseParameters]
    parents: ParticleEnsemble | None = None

    @property
    def n_members(self) -> int:
        return len(self.member_seeds)


# --------------------------------------------------------------------------- #
class SequentialCalibrator:
    """The paper's HPC-aware sequential calibration framework.

    Parameters
    ----------
    base_params:
        Disease parameterisation; fields named in ``param_map`` are
        overridden per particle.
    prior:
        First-window joint prior.  Must contain :data:`BIAS_PARAM` (rho) and
        every key of ``param_map``.
    jitter:
        Window-to-window proposal kernels for the same parameter names.
    observation_model:
        Bias + likelihood configuration per observed stream.
    schedule:
        Calibration windows (plus burn-in start).
    config:
        Ensemble sizes and algorithmic switches.
    executor:
        Parallel map backend; defaults to serial.
    param_map:
        Mapping from prior parameter names to ``DiseaseParameters`` fields.
        Every mapped field must be one of the six checkpoint-restart knobs
        (the paper's contract); rho is handled by the observation model and
        must not be mapped.
    progress:
        Optional callback ``progress(message: str)`` for run logging.
    scenario:
        Optional :class:`~repro.core.scenarios.ScenarioSpec` of declarative
        parameter overrides this run calibrates under.  Day-0 overrides
        rewrite the base parameterisation; later overrides must target a
        checkpoint-restart knob and take effect exactly at a continuation
        window's start day.  By default scenarios share the run's
        ``base_seed`` (common random numbers — a scenario whose effective
        parameters equal the baseline's over a window prefix produces
        bit-identical windows); ``independent_streams=True`` re-roots every
        stream on :meth:`~repro.seir.seeding.SeedSequenceBank.scenario_base_seed`.
        ``None`` (and any override-free, shared-stream scenario) is
        bit-identical to a scenario-less run.
    """

    def __init__(self, base_params: DiseaseParameters,
                 prior: IndependentProduct,
                 jitter: JointJitter,
                 observation_model: ObservationModel,
                 schedule: WindowSchedule,
                 config: SMCConfig | None = None,
                 executor: Executor | None = None,
                 param_map: Mapping[str, str] | None = None,
                 progress: Callable[[str], None] | None = None,
                 scenario: "ScenarioSpec | None" = None) -> None:
        self.base_params = base_params
        self.prior = prior
        self.jitter = jitter
        self.observation_model = observation_model
        self.schedule = schedule
        self.config = config or SMCConfig()
        self.executor = executor or SerialExecutor()
        self.param_map = dict(param_map or DEFAULT_PARAM_MAP)
        self.scenario = scenario
        self._progress = progress or (lambda _msg: None)
        bank_seed = int(self.config.base_seed)
        if scenario is not None and scenario.independent_streams:
            bank_seed = SeedSequenceBank(bank_seed).scenario_base_seed(
                scenario.stream_key)
        self._bank = SeedSequenceBank(bank_seed)
        # A default FixedSize() passes the realised size through, which for
        # window 0 would promote the (larger) prior cloud into every later
        # window; pin it to each role's classic fixed size instead so
        # "fixed" stays bit-identical to a run with no policy at all.
        self._size_policy = self._pin_fixed(
            self.config.size_policy_instance(),
            self.config.continuation_ensemble_size)
        self._resample_policy = self._pin_fixed(
            self.config.resample_size_policy_instance(),
            self.config.resample_size)
        #: Index of the last window restored from a checkpoint store by the
        #: most recent ``run(..., resume=True)``; None for fresh runs.
        self.resumed_from: int | None = None
        #: Shard failures recovered while producing the current window's
        #: cloud; reset per window and folded into its diagnostics.
        self._window_shard_failures: list[ShardFailure] = []
        self._validate()

    @classmethod
    def _pin_fixed(cls, policy: EnsembleSizePolicy,
                   classic_size: int) -> EnsembleSizePolicy:
        if isinstance(policy, FixedSize) and policy.size is None:
            return FixedSize(size=classic_size)
        if isinstance(policy, BudgetPolicy) and (
                policy.base is None or (isinstance(policy.base, FixedSize)
                                        and policy.base.size is None)):
            # A budget cap over the default pass-through base must cap the
            # classic size, not whatever realised size window 0 produced.
            return replace(policy, base=FixedSize(size=classic_size))
        return policy

    def _validate(self) -> None:
        prior_names = set(self.prior.names)
        if BIAS_PARAM not in prior_names:
            raise ValueError(f"prior must include the bias parameter {BIAS_PARAM!r}")
        if BIAS_PARAM in self.param_map:
            raise ValueError(f"{BIAS_PARAM!r} is the observation-bias parameter "
                             "and cannot be mapped to a simulator field")
        unknown = set(self.param_map) - prior_names
        if unknown:
            raise ValueError(f"param_map names missing from prior: {sorted(unknown)}")
        allowed_fields = set(ParameterOverride._PARAM_FIELDS)
        bad = {f for f in self.param_map.values() if f not in allowed_fields}
        if bad:
            raise ValueError(
                f"param_map targets {sorted(bad)} are not checkpoint-restartable; "
                f"the paper allows only {sorted(allowed_fields)}")
        jitter_names = set(self.jitter.names)
        needed = (prior_names if len(self.schedule) > 1 else set())
        if needed and needed - jitter_names:
            raise ValueError(
                f"jitter kernels missing for parameters: {sorted(needed - jitter_names)}")
        if self.scenario is not None:
            self._validate_scenario()

    def _validate_scenario(self) -> None:
        """Check the scenario's overrides against this run's schedule.

        Calibrated fields belong to the sampler: a scenario overriding a
        ``param_map`` target would be silently overwritten by every draw.
        Mid-run overrides can only take effect where the engine stops —
        simulation runs window-at-a-time, so any override after day 0 must
        start exactly at a continuation window's start day (and
        :class:`~repro.core.scenarios.ScenarioOverride` already restricts
        those to the checkpoint-restart knobs).
        """
        assert self.scenario is not None
        mapped = set(self.param_map.values())
        windows = list(self.schedule)
        continuation_starts = {w.start_day for w in windows[1:]}
        for override in self.scenario.overrides:
            if override.field in mapped:
                raise ValueError(
                    f"scenario {self.scenario.name!r} overrides "
                    f"{override.field!r}, which param_map calibrates; "
                    "a calibrated field cannot be scenario-pinned")
            if override.start_day > 0 and \
                    override.start_day not in continuation_starts:
                raise ValueError(
                    f"scenario {self.scenario.name!r} override of "
                    f"{override.field!r} starts at day {override.start_day}, "
                    "which is not a continuation window start "
                    f"({sorted(continuation_starts)}); mid-run overrides "
                    "can only take effect at a window boundary")

    # ------------------------------------------------------------------ #
    def run(self, observations: ObservationSet, *,
            store: CheckpointStore | None = None,
            resume: bool = False) -> list[WindowResult]:
        """Calibrate every window in the schedule against ``observations``.

        After each window, the configured size policy maps the window's
        diagnostics to the next window's proposal count (the fixed policy
        keeps ``continuation_ensemble_size`` throughout); the size it
        scales from is the window's **realised** cloud
        (``diagnostics.n_particles`` — for window 0 the prior cloud of
        ``n_parameter_draws * n_replicates``, not the planned continuation
        size).  The resample-size policy is consulted inside each window's
        weighting pass and drives the posterior size the same way.  The
        realised per-window sizes are recorded in each result's
        diagnostics and posterior.

        With a ``store`` every completed window's resampled posterior
        (checkpoints, parameters, seeds, ancestry, diagnostics) is durably
        persisted, each window sealed by a completion marker only after
        its full population is on disk.  ``resume=True`` restarts from the
        last *complete* stored window: because all per-window randomness
        is keyed by window index (window-indexed ancillary streams,
        ``(window, draw_index)`` restart seeds) and the store pins the
        run's config/seed fingerprint, the remaining windows are
        bit-identical to an uninterrupted run.  Restored prefix windows
        carry posterior samples, diagnostics, and (for the restart window)
        checkpoints, but not trajectory segments/histories — recompute
        ribbons from a full run if needed.
        """
        if resume and store is None:
            raise ValueError("resume=True requires a checkpoint store")
        self._check_coverage(observations)
        results: list[WindowResult] = []
        posterior: ParticleEnsemble | None = None
        windows = list(self.schedule)
        planned = self.config.continuation_ensemble_size
        planned_resample = self.config.resample_size
        self.resumed_from = None
        start_index = 0
        if store is not None:
            store.validate_run_meta(self.run_fingerprint())
            if resume:
                results = self._restore_results(store, windows)
                if results:
                    posterior = results[-1].posterior
                    start_index = len(results)
                    self.resumed_from = results[-1].index
                    planned, planned_resample = self._replay_policies(
                        results, windows)
                    self._progress(
                        f"resuming after window {self.resumed_from} "
                        f"({start_index}/{len(windows)} windows restored "
                        f"from {store.root})")
        for index, window in enumerate(windows):
            if index < start_index:
                continue
            result = self.step_window(index, window, observations,
                                      posterior, n_proposals=planned,
                                      resample_size=planned_resample)
            posterior = result.posterior
            if store is not None:
                self.persist_window(store, result)
            self._progress(
                f"window {index} ({window.label()}): "
                f"ESS {result.diagnostics.ess:.1f}/{result.diagnostics.n_particles}")
            results.append(result)
            if index + 1 < len(windows):
                proposed, planned_resample = self.planned_sizes_after(
                    result, next_window_days=windows[index + 1].n_days)
                if proposed != planned:
                    self._progress(
                        f"window {index}: size policy resized next cloud "
                        f"{planned} -> {proposed} (ESS fraction "
                        f"{result.diagnostics.ess_fraction:.2f})")
                planned = proposed
        return results

    def step_window(self, index: int, window: TimeWindow,
                    observations: ObservationSet,
                    posterior: ParticleEnsemble | None = None, *,
                    n_proposals: int | None = None,
                    resample_size: int | None = None) -> WindowResult:
        """Calibrate one window — the single-step entry point.

        The body of :meth:`run`'s outer loop, exposed so a streaming driver
        (the always-on service of :mod:`repro.service`) can advance the
        calibration one window at a time as observations arrive.  Window 0
        simulates the prior cloud from burn-in; every later window needs
        the previous window's resampled ``posterior`` (its particles must
        carry checkpoints).  ``n_proposals`` / ``resample_size`` are the
        size-policy plans for this window (see :meth:`planned_sizes_after`;
        defaults reproduce the classic fixed sizes).  ``observations`` only
        needs to cover this window's day range, and all per-window
        randomness is keyed by ``index``, so stepping windows one at a time
        is bit-identical to a full :meth:`run` over the same schedule.

        The window runs :meth:`propose_window` -> simulate ->
        :meth:`assemble_window` -> :meth:`weigh_window`.
        """
        if observations.start_day > window.start_day or \
                observations.end_day < window.end_day:
            raise ValueError(
                f"observations cover days [{observations.start_day}, "
                f"{observations.end_day}) but window {index} needs "
                f"[{window.start_day}, {window.end_day})")
        pending = self.propose_window(index, window, posterior,
                                      n_proposals=n_proposals)
        ensemble = self.assemble_window(pending,
                                        self._simulate_pending(pending))
        return self.weigh_window(index, window, ensemble,
                                 observations, sim_days=pending.sim_days,
                                 resample_size=resample_size)

    def planned_sizes_after(self, result: WindowResult, *,
                            next_window_days: int) -> tuple[int, int]:
        """The size plans ``(n_proposals, resample_size)`` for the window
        after ``result``.

        Both policies are stateless and Markovian in the previous window's
        realised outcome: the proposal plan depends only on
        ``result.diagnostics`` and the realised cloud size, the resample
        plan is the realised posterior size.  This is what lets a resumed
        or streaming run recover the exact plans of an uninterrupted run
        from the latest window alone (see :meth:`restore_latest_window`).
        """
        proposed = int(self._size_policy.next_size(
            window_index=result.index,
            current_size=result.diagnostics.n_particles,
            diagnostics=result.diagnostics,
            next_window_days=next_window_days))
        if proposed < 1:
            raise ValueError(
                f"size policy proposed a cloud of {proposed} "
                f"particles after window {result.index}")
        return proposed, len(result.posterior)

    def _check_coverage(self, observations: ObservationSet) -> None:
        if observations.start_day > self.schedule.start_day or \
                observations.end_day < self.schedule.end_day:
            raise ValueError(
                f"observations cover days [{observations.start_day}, "
                f"{observations.end_day}) but the schedule needs "
                f"[{self.schedule.start_day}, {self.schedule.end_day})")

    # ------------------------------------------------------------------ #
    # Fault tolerance: shard-failure reporting, persistence, resume.
    # ------------------------------------------------------------------ #
    def _on_shard_failure(self, failure: ShardFailure) -> None:
        self._window_shard_failures.append(failure)
        self._progress(
            f"shard {failure.shard_id} attempt {failure.attempt} failed "
            f"[{failure.cause}] {failure.error}; retrying")

    def run_fingerprint(self) -> dict:
        """JSON-stable identity of everything that determines a run's bits.

        Stored in the checkpoint store's ``run_meta.json`` and validated on
        reuse/resume: two runs with equal fingerprints produce bit-identical
        windows, so resuming across a fingerprint mismatch is refused.  The
        shard layout is recorded in *resolved* form — ``n_shards="auto"``
        depends on the executor's worker count, and that resolution (not
        the config string) is what keys the per-shard RNG streams.
        ``"weighting"`` is a literal left from when the weighting path was
        configurable.  ``"format_version"`` is the store layout: 2 is one
        columnar ``checkpoints.npz`` per window, so a store written in the
        older per-particle layout (1) is refused instead of silently
        restarting from window 0.
        """
        cfg = self.config

        def policy_tag(policy: str | EnsembleSizePolicy) -> str:
            return policy if isinstance(policy, str) else repr(policy)

        def sorted_dict(d: Mapping) -> dict:
            return {str(k): d[k] for k in sorted(d)}

        fingerprint = {
            "format_version": 2,
            "base_seed": cfg.base_seed,
            "engine": cfg.engine,
            "engine_options": sorted_dict(cfg.engine_options),
            "shard_layout": self._shard_layout_kwargs(),
            "n_parameter_draws": cfg.n_parameter_draws,
            "n_replicates": cfg.n_replicates,
            "resample_size": cfg.resample_size,
            "n_continuations": cfg.n_continuations,
            "resampler": cfg.resampler,
            "weighting": "batched",
            "size_policy": policy_tag(cfg.size_policy),
            "size_policy_options": sorted_dict(cfg.size_policy_options),
            "resample_size_policy": policy_tag(cfg.resample_size_policy),
            "resample_size_policy_options":
                sorted_dict(cfg.resample_size_policy_options),
            "temper": [cfg.temper_degenerate, cfg.temper_threshold,
                       cfg.temper_ess_floor, cfg.temper_resampler],
            "schedule": [w.label() for w in self.schedule],
            "burn_in_start": self.schedule.burn_in_start,
            "param_map": sorted_dict(self.param_map),
        }
        # Pre-scenario stores carry no "scenario" key; a baseline scenario
        # is bit-identical to no scenario, so it must fingerprint the same
        # way — the key appears only when the scenario changes the bits.
        if self.scenario is not None and not self.scenario.is_baseline:
            fingerprint["scenario"] = self.scenario.fingerprint_payload()
        return fingerprint

    def persist_window(self, store: CheckpointStore,
                        result: WindowResult) -> None:
        """Durably persist one completed window's resampled posterior.

        The posterior's restart columns land as one ``checkpoints.npz``;
        parameters, seeds, ancestry, and diagnostics ride in the window's
        ``state.json``; the completion marker is written strictly last (see
        :meth:`~repro.hpc.checkpoint_io.CheckpointStore.save_window_state`),
        so a crash mid-persist leaves a torn — and therefore skipped —
        window, never a corrupt restart point.
        """
        posterior = result.posterior
        if posterior.restart is None:
            raise ValueError(
                "cannot persist a posterior whose particles carry no "
                "checkpoints")
        meta = {
            "format_version": 1,
            "window_index": result.index,
            "window_label": result.window.label(),
            "params": posterior.param_rows(),
            "seeds": posterior.seeds().tolist(),
            "ancestors": posterior.ancestors().tolist(),
            "diagnostics": result.diagnostics.to_dict(),
        }
        store.save_window_state(result.index, posterior.restart, meta)

    def _restore_results(self, store: CheckpointStore,
                         windows: list[TimeWindow]) -> list[WindowResult]:
        """Rebuild :class:`WindowResult`\\ s for the complete stored prefix.

        Only a gapless prefix of complete windows is restored (a gap means
        everything after it must be recomputed anyway).  Checkpoints are
        loaded for the final restored window only — that is the posterior
        the next window restarts from; earlier windows carry posterior
        samples and diagnostics for reporting.
        """
        prefix: list[int] = []
        for index in range(len(windows)):
            if not store.window_complete(index):
                break
            prefix.append(index)
        return [self._restore_window(store, index, windows[index],
                                     with_checkpoints=(index == prefix[-1]))
                for index in prefix]

    def _restore_window(self, store: CheckpointStore, index: int,
                        window: TimeWindow, *,
                        with_checkpoints: bool) -> WindowResult:
        """Rebuild one stored window's :class:`WindowResult`.

        Checkpoints are loaded only when requested (they are needed only
        for the window the run restarts from); posterior samples,
        ancestry, and diagnostics always restore.
        """
        meta = store.load_window_meta(index)
        if int(meta.get("window_index", -1)) != index:
            raise CheckpointError(
                f"window {index} metadata names window "
                f"{meta.get('window_index')!r}; store is inconsistent")
        if str(meta.get("window_label")) != window.label():
            raise CheckpointError(
                f"stored window {index} covers "
                f"{meta.get('window_label')!r} but the schedule expects "
                f"{window.label()!r}")
        params = list(meta["params"])
        seeds = list(meta["seeds"])
        ancestors = list(meta["ancestors"])
        if not len(params) == len(seeds) == len(ancestors):
            raise CheckpointError(
                f"window {index} metadata arrays disagree on length")
        restart: StackedLeapState | None = None
        if with_checkpoints:
            restart, _ = store.load_window_state(index)
            if restart.n_particles != len(params):
                raise CheckpointError(
                    f"window {index} stores {restart.n_particles} "
                    f"checkpoints but {len(params)} posterior samples")
        names = list(params[0]) if params else []
        if any(set(row) != set(names) for row in params):
            raise CheckpointError(
                f"window {index} posterior samples disagree on parameters")
        posterior = ParticleEnsemble.from_columns(
            {name: [float(row[name]) for row in params] for name in names},
            np.array(seeds, dtype=np.int64), ancestors=np.array(ancestors),
            restart=restart)
        return WindowResult(
            index=index, window=window, posterior=posterior,
            diagnostics=WindowDiagnostics.from_dict(
                dict(meta["diagnostics"])))

    def restore_latest_window(self, store: CheckpointStore
                              ) -> WindowResult | None:
        """Restore the newest *complete* stored window alone, with
        checkpoints.

        The streaming-service resume path: unlike :meth:`run`'s
        gapless-prefix restore (which rebuilds every window for the final
        :class:`~repro.inference.results.CalibrationResult`), continuing
        the calibration needs only the latest sealed window — the size
        plans for the next window derive from it alone
        (:meth:`planned_sizes_after`) — so this tolerates stores whose
        older windows were pruned by
        :meth:`~repro.hpc.checkpoint_io.CheckpointStore.prune`.  Returns
        ``None`` for a store with no complete window.
        """
        windows = list(self.schedule)
        for index in sorted(store.stored_windows(), reverse=True):
            if not store.window_complete(index):
                continue
            if index >= len(windows):
                raise CheckpointError(
                    f"store holds window {index} but the schedule has only "
                    f"{len(windows)} windows")
            return self._restore_window(store, index, windows[index],
                                        with_checkpoints=True)
        return None

    def _replay_policies(self, results: list[WindowResult],
                         windows: list[TimeWindow]) -> tuple[int, int]:
        """Replay the size policies over the restored prefix.

        Size policies are stateless (frozen dataclasses of
        :mod:`repro.core.ensemble_control`) and Markovian in the previous
        window's outcome, so the last restored window alone recovers
        exactly the ``planned`` / ``planned_resample`` values the
        uninterrupted run would carry into the first recomputed window —
        no policy state needs persisting.
        """
        last = results[-1]
        if last.index + 1 >= len(windows):
            # Everything restored; the plans are never consulted again.
            return (self.config.continuation_ensemble_size,
                    len(last.posterior))
        return self.planned_sizes_after(
            last, next_window_days=windows[last.index + 1].n_days)

    # ------------------------------------------------------------------ #
    def _window_base_params(self, window: TimeWindow) -> DiseaseParameters:
        """The scenario-effective base parameterisation for one window.

        Applies every scenario override whose start day has been reached by
        ``window.start_day`` (validation guarantees those are day-0
        rewrites or overrides landing exactly on this window's start);
        without a scenario this is ``base_params`` itself, bit-for-bit.
        """
        if self.scenario is None:
            return self.base_params
        return self.scenario.params_at(window.start_day, self.base_params)

    def _params_for_draw(self, draw: Mapping[str, float],
                         base: DiseaseParameters) -> DiseaseParameters:
        updates = {fld: float(draw[name]) for name, fld in self.param_map.items()}
        return base.with_updates(**updates)

    def _shard_layout_kwargs(self) -> dict:
        """Resolve the configured shard policy against the executor.

        Delegates to the shared policy implementation
        (:func:`~repro.hpc.sharding.resolve_shard_layout`): one shard per
        worker under ``"auto"``, so a serial executor keeps the
        single-shard in-process fast path.
        """
        return resolve_shard_layout(self.executor,
                                    shard_size=self.config.shard_size,
                                    n_shards=self.config.n_shards)

    # ------------------------------------------------------------------ #
    # Split-phase API: propose -> simulate -> assemble -> weigh.
    #
    # ``step_window`` fuses the phases for a single scenario;
    # :class:`~repro.core.scenarios.ScenarioSweep` calls them separately so
    # that many scenarios' proposal clouds can be flattened into ONE shard
    # dispatch (``simulate_group_sets``).  Because per-shard RNG streams are
    # keyed by seed slices only — never by shard id — the flattened dispatch
    # is bit-identical to dispatching each scenario alone.
    # ------------------------------------------------------------------ #
    def propose_window(self, index: int, window: TimeWindow,
                       posterior: ParticleEnsemble | None = None, *,
                       n_proposals: int | None = None) -> PendingWindow:
        """Build (but do not simulate) one window's proposal cloud.

        Consumes all of the window's prior/jitter randomness, so
        ``assemble_window(p, simulate_groups(...))`` over the returned plan
        is bit-identical to :meth:`step_window`.  Window 0 ignores
        ``posterior``; continuations require it (particles must carry
        checkpoints).
        """
        self._window_shard_failures = []
        if index == 0:
            return self._propose_first_window(window)
        if posterior is None:
            raise ValueError(
                f"window {index} is a continuation and needs the "
                "previous window's posterior")
        return self._propose_continuation(index, window, posterior,
                                          n_proposals=n_proposals)

    def _propose_first_window(self, window: TimeWindow) -> PendingWindow:
        cfg = self.config
        base = self._window_base_params(window)
        rng_prior = self._bank.ancillary_generator(_PURPOSE_PRIOR)
        draws = self.prior.sample(cfg.n_parameter_draws, rng_prior)
        seeds = self._bank.common_replicate_seeds(cfg.n_replicates)
        # Draw-major, replicate-minor member order.
        member_draws = {name: np.repeat(draws[name], cfg.n_replicates)
                        for name in self.prior.names}
        member_seeds = np.tile(np.asarray(seeds, dtype=np.int64),
                               cfg.n_parameter_draws)
        draw_params = [self._params_for_draw(
            {name: float(draws[name][i]) for name in self.prior.names}, base)
            for i in range(cfg.n_parameter_draws)]
        member_params = [p for p in draw_params
                         for _ in range(cfg.n_replicates)]
        groups = structural_groups(member_params)
        specs = build_group_specs(groups, member_params, member_seeds,
                                  start_day=self.schedule.burn_in_start)
        self._progress(f"window 0: batch-simulating {len(member_seeds)} prior "
                       f"trajectories ({len(groups)} structural group(s), "
                       f"{self.executor.workers} worker(s))")
        return PendingWindow(
            index=0, window=window,
            sim_days=window.end_day - self.schedule.burn_in_start,
            groups=groups, specs=specs, member_draws=member_draws,
            member_seeds=member_seeds, member_params=member_params,
            parents=None)

    def _propose_continuation(self, index: int, window: TimeWindow,
                              posterior: ParticleEnsemble, *,
                              n_proposals: int | None = None) -> PendingWindow:
        """Propose the next window's cloud at any size.

        ``n_proposals`` (default ``continuation_ensemble_size``) is the
        size-policy output: draw ``i`` descends from parent ``i mod
        len(posterior)`` — cycling through the resampled posterior, which
        reproduces the classic ``n_continuations`` replication when the
        size is a multiple of it, subsamples an exchangeable prefix when
        shrinking, and revisits parents when growing.  Each draw's restart
        seed is keyed by ``(window, draw_index)`` alone
        (:meth:`~repro.seir.seeding.SeedSequenceBank.window_draw_seed`), so
        the seed vector is prefix-stable under size changes.
        """
        cfg = self.config
        n = int(n_proposals) if n_proposals is not None \
            else cfg.continuation_ensemble_size
        if n < 1:
            raise ValueError("n_proposals must be >= 1")
        base = self._window_base_params(window)
        rng_jitter = self._bank.ancillary_generator(_PURPOSE_JITTER,
                                                    window_index=index)
        if posterior.restart is None:
            raise ValueError(f"window {index} needs a posterior whose "
                             "particles carry checkpoints")
        parents = posterior.select(np.arange(n) % len(posterior))
        proposal = self.jitter.propose(
            {name: parents.values(name) for name in self.prior.names},
            rng_jitter)
        member_draws = {name: np.asarray(proposal[name], dtype=np.float64)
                        for name in self.prior.names}
        seeds = np.array([self._bank.window_draw_seed(index, i)
                          for i in range(n)], dtype=np.int64)
        params_list = [self._params_for_draw(
            {name: float(member_draws[name][i]) for name in self.prior.names},
            base) for i in range(n)]
        groups = structural_groups(params_list)
        specs = build_group_specs(groups, params_list, seeds,
                                  state=parents.restart)
        self._progress(
            f"window {index}: batch-restarting {n} "
            f"checkpoints ({window.label()})")
        return PendingWindow(
            index=index, window=window, sim_days=window.n_days,
            groups=groups, specs=specs, member_draws=member_draws,
            member_seeds=seeds, member_params=params_list, parents=parents)

    def _simulate_pending(self, pending: PendingWindow) -> list[GroupShards]:
        cfg = self.config
        return simulate_groups(self.executor, pending.specs,
                               end_day=pending.window.end_day,
                               engine_options=cfg.engine_options,
                               retry=cfg.retry,
                               on_failure=self._on_shard_failure,
                               **self._shard_layout_kwargs())

    def assemble_window(self, pending: PendingWindow,
                        shards: list[GroupShards]) -> ParticleEnsemble:
        """Reassemble a dispatched :class:`PendingWindow` into an ensemble.

        ``shards`` is the per-group result list for exactly
        ``pending.specs`` (e.g. one element of a
        :func:`~repro.hpc.sharding.simulate_group_sets` return).  The shard
        outputs and restart states are concatenated and put back in member
        order.  Window 0's whole trajectories become the histories, sliced
        to the window for the segments; a continuation's segments continue
        its gathered parents' histories (by genealogy, not by copying).
        """
        batch, state = reassemble(pending.groups, shards)
        assert state is not None, "window shards must return their state"
        restart = state.with_parameters(pending.member_params)
        if pending.parents is not None:
            return pending.parents.continued(
                pending.member_draws, pending.member_seeds, batch, restart)
        return ParticleEnsemble.from_columns(
            pending.member_draws, pending.member_seeds,
            segments=batch.window(pending.window.start_day,
                                  pending.window.end_day),
            histories=batch, restart=restart)

    def weigh_window(self, index: int, window: TimeWindow,
                     ensemble: ParticleEnsemble,
                     observations: ObservationSet,
                     sim_days: int | None = None,
                     resample_size: int | None = None) -> WindowResult:
        """Weight the window's cloud and draw its resampled posterior.

        The last phase of the split-phase API (after
        :meth:`propose_window` / :meth:`assemble_window`) — also the tail
        of every fused :meth:`step_window`.  ``resample_size`` is the
        resample-size policy's running state (the
        previous window's realised posterior size; default
        ``SMCConfig.resample_size``): the policy maps it and the window's
        pre-resampling weight diagnostics to this window's posterior count.
        With ``temper_degenerate`` set, a window whose ESS fraction falls
        below ``temper_threshold`` is resampled through the staged tempered
        bridge instead of one multinomial pass — drawing from the same
        window-indexed resampling stream, so reproducibility per
        ``(base_seed, shard layout)`` is unchanged — and the realised
        schedule lands in the diagnostics.
        """
        cfg = self.config
        if sim_days is None:
            sim_days = window.n_days
        window_obs = observations.window(window.start_day, window.end_day)
        rng_bias = self._bank.ancillary_generator(_PURPOSE_BIAS,
                                                  window_index=index)
        log_weights = self.observation_model.loglik_ensemble(
            window_obs, ensemble, ensemble.values(BIAS_PARAM), rng_bias)
        weighted_ensemble = ensemble.with_log_weights(log_weights)

        normalized = normalize_log_weights(log_weights)
        particle_steps = len(ensemble) * int(sim_days)
        # The posterior-size decision needs this window's weight health, so
        # the policy sees the pre-resampling diagnostics (ancestors unknown
        # yet, hence 0); the recorded diagnostics are rebuilt below with the
        # realised ancestry and tempering audit trail.
        pre_diag = compute_diagnostics(log_weights, normalized, 0,
                                       particle_steps=particle_steps)
        current_resample = int(resample_size if resample_size is not None
                               else cfg.resample_size)
        n_out = int(self._resample_policy.next_size(
            window_index=index, current_size=current_resample,
            diagnostics=pre_diag, next_window_days=window.n_days))
        if n_out < 1:
            raise ValueError(
                f"resample size policy proposed a posterior of {n_out} "
                f"particles for window {index}")
        if n_out != current_resample:
            self._progress(
                f"window {index}: resample policy resized posterior "
                f"{current_resample} -> {n_out} (ESS fraction "
                f"{pre_diag.ess_fraction:.2f})")

        rng_resample = self._bank.ancillary_generator(_PURPOSE_RESAMPLE,
                                                      window_index=index)
        tempered = None
        if cfg.temper_degenerate and \
                pre_diag.ess_fraction < cfg.temper_threshold:
            tempered = temper_and_resample(
                log_weights, n_out, rng_resample,
                ess_floor_fraction=cfg.temper_ess_floor,
                resampler=cfg.temper_resampler)
            indices = tempered.indices
            cut = ", truncated" if tempered.truncated else ""
            self._progress(
                f"window {index}: tempered rescue bridged "
                f"{tempered.n_stages} stage(s){cut} (ESS fraction "
                f"{pre_diag.ess_fraction:.3f} < {cfg.temper_threshold})")
        else:
            indices = get_resampler(cfg.resampler)(normalized, n_out,
                                                   rng_resample)
        posterior = weighted_ensemble.select(indices)

        # The weight statistics are unchanged since pre_diag; only the
        # realised ancestry, the tempering audit trail, and the window's
        # recovered shard failures are new.
        failures = self._window_shard_failures
        diagnostics = replace(
            pre_diag, unique_ancestors=int(posterior.unique_ancestors()),
            temper_schedule=tempered.schedule if tempered else (),
            temper_stage_ess=tempered.stage_ess if tempered else (),
            temper_truncated=bool(tempered and tempered.truncated),
            shard_failures=len(failures),
            shard_failure_causes=tuple(f.cause for f in failures))
        return WindowResult(
            index=index, window=window, posterior=posterior,
            diagnostics=diagnostics,
            weighted_ensemble=weighted_ensemble
            if cfg.keep_weighted_ensemble else None)
