"""Sequential importance sampling calibrator (paper Algorithm 1 + eq. 5).

The paper's two loops are each coded once, over one or more calibrators
sharing a schedule, config and executor:

* :func:`window_loop`, the **outer loop** over calibration windows, moves
  the epidemic forward in time, carrying posterior particles (with their
  checkpoints) from one window to the next, and persists/resumes them;
* :func:`window_step`, the **inner step** per window: sample parameters,
  simulate trajectories in parallel, weight them against the window's
  observations, and resample.

:meth:`SequentialCalibrator.run` is the loop over one calibrator,
:meth:`SequentialCalibrator.step_window` (the streaming service's entry
point) the step for one, and :class:`~repro.core.scenarios.ScenarioSweep`
runs the loop over one calibrator per scenario, one step per window for
all its world-lines.

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

The step is four phases long: *propose* the cloud
(:meth:`~SequentialCalibrator.propose_window`), *simulate* it as stacked
``(n_particles, n_compartments)`` state matrices on the
:class:`~repro.seir.batch_engine.BatchedBinomialLeapEngine`, *assemble* the
columnar :class:`ParticleEnsemble` from the concatenated shard outputs
(:meth:`~SequentialCalibrator.assemble_window`), and *weigh* it
(:meth:`~SequentialCalibrator.weigh_window`).  The calibrated simulator
field is fixed: each member's theta draw is its transmission rate, every
other field is the window's base parameters, so a window's cloud is one
batch (one :class:`~repro.hpc.sharding.GroupSpec`).  Weighting slices the
segments once per source (``ParticleEnsemble.segment_matrix``), thins them
with one binomial call (``BinomialBiasModel.apply_batch``) and scores them
with one vectorised likelihood evaluation per source
(``ObservationModel.loglik_ensemble``).  All per-window ancillary randomness
(jitter, bias thinning, resampling) draws from window-indexed streams of the
:class:`~repro.seir.seeding.SeedSequenceBank`, so no two windows ever share
a random stream.  No per-particle object is built on this path: proposals
are parameter columns and seed vectors (one ``DiseaseParameters`` per
window), resampling gathers columns by index, continuations
restart the gathered parents' restart rows, and the checkpoint store writes
those rows as they are.

Proposal-cloud sizes adapt through the size policy
(``SMCConfig.size_policy``; the posterior keeps ``resample_size``),
degenerate windows can be rescued by the tempered bridge of
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
from typing import (TYPE_CHECKING, Callable, ClassVar, Hashable, Mapping,
                    Sequence)

import numpy as np

from ..data.sources import ObservationSet
from ..hpc.checkpoint_io import CheckpointStore
from ..hpc.executor import Executor, SerialExecutor
from ..hpc.faults import FAIL_FAST, RetryPolicy, ShardFailure
from ..hpc.sharding import (GroupShards, GroupSpec, build_group_spec,
                            reassemble, resolve_shard_layout,
                            simulate_group_sets, validate_shard_policy)
from ..seir.batch_engine import BatchedBinomialLeapEngine
from ..seir.checkpoint import CheckpointError, StackedLeapState
from ..seir.parameters import DiseaseParameters, parameter_columns
from ..seir.seeding import SeedSequenceBank, register_ancillary_purpose
from .adaptive import temper_and_resample
from .diagnostics import (DEGENERACY_THRESHOLD, WindowDiagnostics,
                          compute_diagnostics)
from .ensemble_control import (EnsembleSizePolicy, FixedSize,
                               resolve_size_policy)
from .observation import ObservationModel, paper_observation_model
from .particle import ParticleEnsemble
from .priors import IndependentProduct
from .proposals import JointJitter
from .resampling import multinomial_resample
from .weights import normalize_log_weights
from .window import TimeWindow, WindowSchedule

if TYPE_CHECKING:  # imported lazily to avoid a cycle with core.scenarios
    from .scenarios import ScenarioSpec

__all__ = ["SMCConfig", "WindowResult", "PendingWindow",
           "SequentialCalibrator", "window_step", "window_loop",
           "BIAS_PARAM"]

#: Reserved name of the reporting-bias parameter in priors/jitters.
BIAS_PARAM = "rho"

# The calibrated simulator parameter: each member's draw of it is that
# member's DiseaseParameters.transmission_rate.
_THETA_PARAM = "theta"
_THETA_FIELD = "transmission_rate"

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
    ``n_shards="auto"`` (the default) cuts each window's batch into one
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
    ``[n_min, n_max]``), or any object implementing
    :class:`~repro.core.ensemble_control.EnsembleSizePolicy`.
    ``size_policy_options`` are the named policy's constructor keywords
    (e.g. ``{"target_high": 0.4, "n_min": 100}``).  Policies are
    deterministic, so adaptive runs remain bit-reproducible for a fixed
    ``(base_seed, size_policy, shard layout)`` and identical across
    executors; the first window always uses
    ``n_parameter_draws * n_replicates`` prior draws, and every posterior
    keeps ``resample_size`` particles, as in the paper's Algorithm 1.  A
    grow decision and a tempering pass can land on the same window: the
    continuation machinery is size-agnostic (parents are cycled from the
    posterior, restart seeds are keyed by ``(window, draw_index)``).

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
    jump.  The bridge resamples systematically: it resamples at every
    stage, so a multinomial scheme would compound noise and could end up
    noisier than the single multinomial pass.

    ``retry`` is the :class:`~repro.hpc.faults.RetryPolicy` every window's
    sharded dispatch runs under.  The default
    :data:`~repro.hpc.faults.FAIL_FAST` makes one attempt and fails the
    run with a structured :class:`~repro.hpc.faults.ShardRetryError`;
    more attempts re-execute failed / timed-out / dropped / corrupted
    shards with deterministic backoff, falling back to serial in-process
    execution on the final attempt.  Because shard
    outputs are pure functions of ``(base_seed, shard layout)``, retried
    runs stay bit-identical to fault-free ones (see
    ``docs/fault_tolerance.md``).
    """

    n_parameter_draws: int = 500
    n_replicates: int = 5
    resample_size: int = 500
    n_continuations: int = 1
    engine: ClassVar[str] = BatchedBinomialLeapEngine.name
    engine_options: dict = field(default_factory=dict)
    shard_size: int | None = None
    n_shards: int | str = "auto"
    base_seed: int = 20240215
    size_policy: str | EnsembleSizePolicy = "fixed"
    size_policy_options: dict = field(default_factory=dict)
    temper_degenerate: bool = False
    temper_threshold: float = DEGENERACY_THRESHOLD
    temper_ess_floor: float = 0.5
    retry: RetryPolicy = FAIL_FAST

    def __post_init__(self) -> None:
        if not isinstance(self.retry, RetryPolicy):
            raise ValueError(
                f"retry must be a RetryPolicy, got {self.retry!r}")
        for name in ("n_parameter_draws", "n_replicates", "resample_size",
                     "n_continuations"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        resolve_size_policy(self.size_policy, self.size_policy_options)
        if not 0.0 <= self.temper_threshold <= 1.0:
            raise ValueError("temper_threshold must lie in [0, 1]")
        if not 0.0 < self.temper_ess_floor < 1.0:
            raise ValueError("temper_ess_floor must lie in (0, 1)")
        validate_shard_policy(self.shard_size, self.n_shards)

    def size_policy_instance(self) -> EnsembleSizePolicy:
        """The configured ensemble-size controller, ready to consult."""
        return resolve_size_policy(self.size_policy, self.size_policy_options)

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
    """

    index: int
    window: TimeWindow
    posterior: ParticleEnsemble
    diagnostics: WindowDiagnostics

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
    the members' parameter-draw columns, seeds and effective simulator
    parameters (``member_columns``: one column per
    :class:`~repro.seir.parameters.DiseaseParameters` field, the window's
    base parameters broadcast under the theta draws), the window's one
    ready-to-dispatch :class:`~repro.hpc.sharding.GroupSpec` (``specs``
    always holds exactly one), and (for continuations; ``None`` for window
    0) the previous posterior gathered by member as ``parents``.  All
    per-window randomness is consumed while building it and simulation
    streams are keyed by the specs' seed vectors, so a multi-scenario sweep
    can pool many windows' specs into one flattened dispatch
    (:func:`~repro.hpc.sharding.simulate_group_sets`) bit-identically.
    """

    index: int
    window: TimeWindow
    sim_days: int
    specs: list[GroupSpec]
    member_draws: dict[str, np.ndarray]
    member_seeds: np.ndarray
    member_columns: dict[str, np.ndarray]
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
        Disease parameterisation; each particle's theta draw overrides its
        ``transmission_rate``.
    prior:
        First-window joint prior.  Must contain theta and
        :data:`BIAS_PARAM` (rho), which the observation model consumes.
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
                 progress: Callable[[str], None] | None = None,
                 scenario: "ScenarioSpec | None" = None) -> None:
        self.base_params = base_params
        self.prior = prior
        self.jitter = jitter
        self.observation_model = observation_model
        self.schedule = schedule
        self.config = config or SMCConfig()
        self.executor = executor or SerialExecutor()
        self.scenario = scenario
        self._progress = progress or (lambda _msg: None)
        bank_seed = int(self.config.base_seed)
        if scenario is not None and scenario.independent_streams:
            bank_seed = SeedSequenceBank(bank_seed).scenario_base_seed(
                scenario.stream_key)
        self._bank = SeedSequenceBank(bank_seed)
        # A default FixedSize() passes the realised size through, which for
        # window 0 would promote the (larger) prior cloud into every later
        # window; pin it to the classic continuation size instead so
        # "fixed" stays bit-identical to a run with no policy at all.
        policy = self.config.size_policy_instance()
        if isinstance(policy, FixedSize) and policy.size is None:
            policy = FixedSize(size=self.config.continuation_ensemble_size)
        self._size_policy = policy
        #: Index of the last window restored from a checkpoint store by the
        #: most recent ``run(..., resume=True)``; None for fresh runs.
        self.resumed_from: int | None = None
        #: Shard failures recovered while producing the current window's
        #: cloud; reset per window and folded into its diagnostics.
        self._window_shard_failures: list[ShardFailure] = []
        self._validate()

    def _validate(self) -> None:
        prior_names = set(self.prior.names)
        if BIAS_PARAM not in prior_names:
            raise ValueError(f"prior must include the bias parameter {BIAS_PARAM!r}")
        if _THETA_PARAM not in prior_names:
            raise ValueError(f"prior must include the transmission-rate "
                             f"parameter {_THETA_PARAM!r}")
        jitter_names = set(self.jitter.names)
        needed = (prior_names if len(self.schedule) > 1 else set())
        if needed and needed - jitter_names:
            raise ValueError(
                f"jitter kernels missing for parameters: {sorted(needed - jitter_names)}")
        if self.scenario is not None:
            self.scenario.check_schedule(self.schedule)

    # ------------------------------------------------------------------ #
    def run(self, observations: ObservationSet, *,
            store: CheckpointStore | None = None,
            resume: bool = False) -> list[WindowResult]:
        """Calibrate every window in the schedule against ``observations``.

        :func:`window_loop` over this calibrator alone (a one-scenario
        sweep).  After each window the size policy maps its diagnostics and
        **realised** cloud size (for window 0, the prior cloud of
        ``n_parameter_draws * n_replicates``) to the next window's
        proposal count.

        With a ``store`` every completed window's posterior (checkpoints,
        parameters, seeds, ancestry, diagnostics) is durably persisted and
        sealed.  ``resume=True`` restarts after the last *complete* stored
        window: all per-window randomness is keyed by window index and the
        store pins the run's fingerprint, so the remaining windows are
        bit-identical to an uninterrupted run.  Restored windows carry
        posterior samples, diagnostics and (the last one) checkpoints, but
        no trajectory segments/histories.
        """
        results, _computed, _reused = window_loop(
            {"": self}, observations,
            stores=None if store is None else {"": store}, resume=resume)
        return results[""]

    def step_window(self, index: int, window: TimeWindow,
                    observations: ObservationSet,
                    posterior: ParticleEnsemble | None = None, *,
                    n_proposals: int | None = None,
                    resample_size: int | None = None) -> WindowResult:
        """Calibrate one window — the single-step entry point.

        :func:`window_step` for this calibrator alone, exposed so a
        streaming driver (the always-on service of :mod:`repro.service`)
        can advance the calibration one window at a time as observations
        arrive.  Window 0 simulates the prior cloud from burn-in; every
        later window needs the previous window's resampled ``posterior``
        (its particles must carry checkpoints).  ``n_proposals`` /
        ``resample_size`` are the size-policy plans for this window (see
        :meth:`planned_sizes_after`; defaults reproduce the classic fixed
        sizes).  ``observations`` only needs to cover this window's day
        range, and all per-window randomness is keyed by ``index``, so
        stepping windows one at a time is bit-identical to a full
        :meth:`run` over the same schedule.
        """
        _require_days(observations, window.start_day, window.end_day,
                      f"window {index}")
        return window_step([self], index, window, observations,
                           [posterior], [(n_proposals, resample_size)])[0]

    def planned_sizes_after(self, result: WindowResult, *,
                            next_window_days: int) -> tuple[int, int]:
        """The size plans ``(n_proposals, resample_size)`` for the window
        after ``result``.

        The size policy is stateless and Markovian in the previous window's
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

    # ------------------------------------------------------------------ #
    # Fault tolerance: shard-failure reporting, persistence, resume.
    # ------------------------------------------------------------------ #
    def _on_shard_failure(self, failure: ShardFailure) -> None:
        self._window_shard_failures.append(failure)
        retrying = failure.attempt < self.config.retry.max_attempts
        self._progress(
            f"shard {failure.shard_id} attempt {failure.attempt} failed "
            f"[{failure.cause}] {failure.error}"
            + ("; retrying" if retrying else ""))

    def run_fingerprint(self) -> dict:
        """JSON-stable identity of everything that determines a run's bits.

        Stored in the checkpoint store's ``run_meta.json`` and validated on
        reuse/resume: two runs with equal fingerprints produce bit-identical
        windows, so resuming across a fingerprint mismatch is refused.  The
        shard layout is recorded in *resolved* form — ``n_shards="auto"``
        depends on the executor's worker count, and that resolution (not
        the config string) is what keys the per-shard RNG streams.
        ``"weighting"``, ``"resampler"``, the last ``"temper"`` entry, the
        two ``"resample_size_policy"`` entries and ``"param_map"`` are
        literals left from when the weighting path, both resampling
        schemes, the posterior size and the calibrated simulator fields
        were configurable, so stores written then still resume.
        ``"format_version"`` is the store layout: 2 is one columnar
        ``checkpoints.npz`` per window, so a store written in the older
        per-particle layout (1) is refused instead of silently restarting
        from window 0.  ``"scenario"`` and ``"observation"`` appear only
        when the scenario or the observation model (a sigma or bias mode
        other than the paper's) changes the bits, so stores written before
        either key existed still resume under the defaults.
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
            "resampler": "multinomial",
            "weighting": "batched",
            "size_policy": policy_tag(cfg.size_policy),
            "size_policy_options": sorted_dict(cfg.size_policy_options),
            "resample_size_policy": "fixed",
            "resample_size_policy_options": {},
            "temper": [cfg.temper_degenerate, cfg.temper_threshold,
                       cfg.temper_ess_floor, "systematic"],
            "schedule": [w.label() for w in self.schedule],
            "burn_in_start": self.schedule.burn_in_start,
            "param_map": {_THETA_PARAM: _THETA_FIELD},
        }
        # Pre-scenario stores carry no "scenario" key; a baseline scenario
        # is bit-identical to no scenario, so it must fingerprint the same
        # way — the key appears only when the scenario changes the bits.
        if self.scenario is not None and not self.scenario.is_baseline:
            fingerprint["scenario"] = self.scenario.fingerprint_payload()
        observation = self.observation_model.fingerprint_payload()
        if observation != paper_observation_model().fingerprint_payload():
            fingerprint["observation"] = observation
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

    def _pending(self, index: int, window: TimeWindow, sim_days: int,
                 member_draws: dict[str, np.ndarray], member_seeds: np.ndarray,
                 parents: ParticleEnsemble | None) -> PendingWindow:
        """A proposed cloud's parameter columns (the window's base
        parameters broadcast, the theta draws written over the transmission
        rate) and its one group spec.  Window 0 (no ``parents``) starts at
        burn-in; a continuation restarts its parents' rows."""
        columns = parameter_columns(
            self._window_base_params(window), len(member_seeds),
            {_THETA_FIELD: member_draws[_THETA_PARAM]})
        spec = build_group_spec(
            columns, member_seeds,
            start_day=self.schedule.burn_in_start if parents is None else None,
            state=None if parents is None else parents.restart)
        return PendingWindow(
            index=index, window=window, sim_days=sim_days, specs=[spec],
            member_draws=member_draws, member_seeds=member_seeds,
            member_columns=columns, parents=parents)

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
    # :func:`window_step` runs these phases for every world-line of a
    # window, flattening all lines' proposal clouds into ONE shard dispatch
    # (``simulate_group_sets``); drivers that time or interleave the phases
    # (the perfbench tracer) call them directly.  Per-shard RNG streams are
    # keyed by seed slices only — never by shard id — so either way each
    # line's window is bit-identical to dispatching it alone.
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
        rng_prior = self._bank.ancillary_generator(_PURPOSE_PRIOR)
        draws = self.prior.sample(cfg.n_parameter_draws, rng_prior)
        seeds = self._bank.common_replicate_seeds(cfg.n_replicates)
        # Draw-major, replicate-minor member order.
        member_draws = {name: np.repeat(draws[name], cfg.n_replicates)
                        for name in self.prior.names}
        member_seeds = np.tile(np.asarray(seeds, dtype=np.int64),
                               cfg.n_parameter_draws)
        pending = self._pending(
            0, window, window.end_day - self.schedule.burn_in_start,
            member_draws, member_seeds, parents=None)
        self._progress(f"window 0: batch-simulating {len(member_seeds)} prior "
                       f"trajectories ({self.executor.workers} worker(s))")
        return pending

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
        (:meth:`~repro.seir.seeding.SeedSequenceBank.window_draw_seeds`),
        so the seed vector is prefix-stable under size changes.
        """
        cfg = self.config
        n = int(n_proposals) if n_proposals is not None \
            else cfg.continuation_ensemble_size
        if n < 1:
            raise ValueError("n_proposals must be >= 1")
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
        self._progress(
            f"window {index}: batch-restarting {n} "
            f"checkpoints ({window.label()})")
        return self._pending(index, window, window.n_days, member_draws,
                             self._bank.window_draw_seeds(index, n),
                             parents=parents)

    def assemble_window(self, pending: PendingWindow,
                        shards: list[GroupShards]) -> ParticleEnsemble:
        """Reassemble a dispatched :class:`PendingWindow` into an ensemble.

        ``shards`` is the per-spec result list for exactly
        ``pending.specs`` (e.g. one element of a
        :func:`~repro.hpc.sharding.simulate_group_sets` return).  The shard
        outputs and restart states are concatenated in member order, and
        the members' parameter columns are attached to the
        restart state as they are.  Window 0's whole trajectories become the
        histories, sliced to the window for the segments; a continuation's
        segments continue its gathered parents' histories (by genealogy,
        not by copying).
        """
        batch, state = reassemble(shards)
        assert state is not None, "window shards must return their state"
        restart = state.with_parameters(pending.member_columns)
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
        posterior's planned size (default ``SMCConfig.resample_size``).
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

        normalized = normalize_log_weights(log_weights)
        particle_steps = len(ensemble) * int(sim_days)
        # The tempering decision needs this window's weight health (ancestors
        # unknown yet, hence 0); the recorded diagnostics are rebuilt below
        # with the realised ancestry and tempering audit trail.
        pre_diag = compute_diagnostics(log_weights, normalized, 0,
                                       particle_steps=particle_steps)
        n_out = int(resample_size if resample_size is not None
                    else cfg.resample_size)

        rng_resample = self._bank.ancillary_generator(_PURPOSE_RESAMPLE,
                                                      window_index=index)
        tempered = None
        if cfg.temper_degenerate and \
                pre_diag.ess_fraction < cfg.temper_threshold:
            tempered = temper_and_resample(
                log_weights, n_out, rng_resample,
                ess_floor_fraction=cfg.temper_ess_floor)
            indices = tempered.indices
            cut = ", truncated" if tempered.truncated else ""
            self._progress(
                f"window {index}: tempered rescue bridged "
                f"{tempered.n_stages} stage(s){cut} (ESS fraction "
                f"{pre_diag.ess_fraction:.3f} < {cfg.temper_threshold})")
        else:
            indices = multinomial_resample(normalized, n_out, rng_resample)
        posterior = ensemble.with_log_weights(log_weights).select(indices)

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
            diagnostics=diagnostics)


# --------------------------------------------------------------------------- #
# Algorithm 1's two loops, each coded once: the window step (propose ->
# simulate -> assemble -> weigh) and the window loop around it.  A plain
# run, the service's one-window step and a multi-scenario sweep all call
# them, with one calibrator per world-line.
# --------------------------------------------------------------------------- #
#: ``line_key(name, window, lineage, plans)``: see :func:`window_loop`.
LineKey = Callable[[str, TimeWindow, object, tuple[int, int]], Hashable]


def _require_days(observations: ObservationSet, start_day: int,
                  end_day: int, what: str) -> None:
    if observations.start_day > start_day or observations.end_day < end_day:
        raise ValueError(
            f"observations cover days [{observations.start_day}, "
            f"{observations.end_day}) but {what} needs "
            f"[{start_day}, {end_day})")


def window_step(calibrators: Sequence[SequentialCalibrator], index: int,
                window: TimeWindow, observations: ObservationSet,
                posteriors: Sequence[ParticleEnsemble | None],
                plans: Sequence[tuple[int | None, int | None]]
                ) -> list[WindowResult]:
    """Calibrate one window for each calibrator (one world-line each).

    Each calibrator proposes its cloud from its ``posteriors`` entry at
    its ``plans`` entry ``(n_proposals, resample_size)``; every cloud's
    group spec goes out in **one**
    :func:`~repro.hpc.sharding.simulate_group_sets` map; then each cloud
    is assembled and weighed.  Shard RNG streams are keyed by seed slices,
    never by dispatch position, so every result is bit-identical to
    stepping its calibrator alone.  The calibrators share one config and
    executor, hence one shard layout and retry policy.
    """
    pendings = [calib.propose_window(index, window, posterior,
                                     n_proposals=n_proposals)
                for calib, posterior, (n_proposals, _) in zip(
                    calibrators, posteriors, plans)]
    first = calibrators[0]
    shard_sets = simulate_group_sets(
        first.executor, [pending.specs for pending in pendings],
        end_day=window.end_day, engine_options=first.config.engine_options,
        retry=first.config.retry,
        on_failures=[calib._on_shard_failure for calib in calibrators],
        **first._shard_layout_kwargs())
    return [calib.weigh_window(index, window,
                               calib.assemble_window(pending, shards),
                               observations, sim_days=pending.sim_days,
                               resample_size=resample_size)
            for calib, pending, shards, (_, resample_size) in zip(
                calibrators, pendings, shard_sets, plans)]


def window_loop(calibrators: Mapping[str, SequentialCalibrator],
                observations: ObservationSet, *,
                stores: Mapping[str, CheckpointStore] | None = None,
                resume: bool = False,
                line_key: LineKey | None = None,
                progress: Callable[[str], None] | None = None
                ) -> tuple[dict[str, list[WindowResult]], int, int]:
    """Calibrate every window of the calibrators' shared schedule.

    The calibrators share one schedule, config and executor: a plain run
    is one calibrator, a sweep one per scenario.  Returns each one's
    window results, the number of windows computed, and the number served
    from another calibrator's world-line.

    With ``stores`` (name -> store) each calibrator checks its store
    against its run fingerprint and persists every window it completes;
    ``resume=True`` first restores each store's gapless prefix of complete
    windows (setting ``resumed_from``) and replays the size policies from
    the last one.  Each window, the calibrators still running split into
    world-lines by ``line_key(name, window, lineage, plans)`` (default:
    one line each; ``lineage`` is ``"fresh"``, ``("restored", name)`` or
    the ``(window, ordinal)`` of the line last shared, ``plans`` the
    ``(n_proposals, resample_size)``), and every line's first member
    computes the window for the line in one :func:`window_step`.  That
    member also reports the line through its own ``progress``;
    ``progress`` gets the line count when more than one calibrator runs.
    """
    if resume and stores is None:
        raise ValueError(
            "resume=True requires a checkpoint store (no stores given)")
    names = list(calibrators)
    if stores is not None:
        missing = [name for name in names if name not in stores]
        if missing:
            raise ValueError(f"no checkpoint store for scenarios {missing}")
    first = calibrators[names[0]]
    _require_days(observations, first.schedule.start_day,
                  first.schedule.end_day, "the schedule")
    windows = list(first.schedule)
    results: dict[str, list[WindowResult]] = {name: [] for name in names}
    plans = {name: (first.config.continuation_ensemble_size,
                    first.config.resample_size) for name in names}
    lineage: dict[str, object] = {name: "fresh" for name in names}
    for name, calib in calibrators.items():
        calib.resumed_from = None
        if stores is None:
            continue
        store = stores[name]
        store.validate_run_meta(calib.run_fingerprint())
        # Only a gapless prefix of sealed windows restores (everything
        # after a gap is recomputed anyway), with checkpoints for its last
        # window alone: the posterior the next window restarts from.
        n_sealed = next((i for i in range(len(windows))
                         if not store.window_complete(i)),
                        len(windows)) if resume else 0
        restored = [calib._restore_window(store, i, windows[i],
                                          with_checkpoints=i == n_sealed - 1)
                    for i in range(n_sealed)]
        if not restored:
            continue
        results[name] = restored
        calib.resumed_from = restored[-1].index
        lineage[name] = ("restored", name)
        if len(restored) < len(windows):
            plans[name] = calib.planned_sizes_after(
                restored[-1], next_window_days=windows[len(restored)].n_days)
        calib._progress(
            f"resuming after window {calib.resumed_from} "
            f"({len(restored)}/{len(windows)} windows restored "
            f"from {store.root})")

    computed = reused = 0
    for index, window in enumerate(windows):
        lines: dict[Hashable, list[str]] = {}
        for name in names:
            if len(results[name]) == index:
                key = name if line_key is None else line_key(
                    name, window, lineage[name], plans[name])
                lines.setdefault(key, []).append(name)
        if not lines:
            continue
        members = list(lines.values())
        active = sum(len(line) for line in members)
        if progress is not None and len(names) > 1:
            progress(f"window {index}: {len(members)} world-line(s) for "
                     f"{active} scenario(s)"
                     + (f", {active - len(members)} reused"
                        if active > len(members) else ""))
        reps = [calibrators[line[0]] for line in members]
        line_results = window_step(
            reps, index, window, observations,
            [results[line[0]][-1].posterior if index else None
             for line in members],
            [plans[line[0]] for line in members])
        computed += len(members)
        reused += active - len(members)
        for ordinal, (line, rep, result) in enumerate(
                zip(members, reps, line_results)):
            for name in line:
                results[name].append(result)
                lineage[name] = (index, ordinal)
                if stores is not None:
                    calibrators[name].persist_window(stores[name], result)
            rep._progress(
                f"window {index} ({window.label()}): "
                f"ESS {result.diagnostics.ess:.1f}/"
                f"{result.diagnostics.n_particles}"
                + (f" (shared by {', '.join(line[1:])})"
                   if len(line) > 1 else ""))
            if index + 1 < len(windows):
                planned = plans[line[0]][0]
                proposed, resample = rep.planned_sizes_after(
                    result, next_window_days=windows[index + 1].n_days)
                if proposed != planned:
                    rep._progress(
                        f"window {index}: size policy resized next cloud "
                        f"{planned} -> {proposed} (ESS fraction "
                        f"{result.diagnostics.ess_fraction:.2f})")
                for name in line:
                    plans[name] = (proposed, resample)
    return results, computed, reused
