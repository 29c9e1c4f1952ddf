"""High-level calibration configuration.

:class:`CalibrationConfig` gathers everything a run needs into one
JSON-serialisable object: ensemble sizes, window schedule, prior and jitter
hyper-parameters, likelihood noise, executor choice.  It builds the core
objects (:class:`~repro.core.smc.SMCConfig`, priors, jitters, observation
model) on demand, so scripts and benches configure runs declaratively.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import ClassVar

from ..core.diagnostics import DEGENERACY_THRESHOLD
from ..core.observation import ObservationModel, paper_observation_model
from ..core.priors import Beta, IndependentProduct, Uniform
from ..core.proposals import JointJitter, paper_window_jitter
from ..core.smc import SMCConfig
from ..core.window import WindowSchedule
from ..hpc.checkpoint_io import CheckpointStore
from ..hpc.executor import EXECUTOR_SPECS, Executor, make_executor
from ..hpc.faults import RetryPolicy
from ..seir.parameters import DiseaseParameters

__all__ = ["CalibrationConfig"]


#: RetryPolicy / observation-model field -> the CalibrationConfig field
#: that sets it.
_FIELD_NAMES = {"max_attempts": "retry_attempts",
                "timeout_seconds": "retry_timeout",
                "backoff_seconds": "retry_backoff",
                "mode": "bias_mode"}


@dataclass(frozen=True)
class CalibrationConfig:
    """Declarative configuration of one sequential calibration run.

    Attributes mirror section V of the paper at laptop scale; paper scale
    is ``n_parameter_draws=25_000, n_replicates=20, resample_size=10_000``.
    """

    window_breaks: tuple[int, ...] = (20, 34, 48, 62, 76)

    n_parameter_draws: int = 500
    n_replicates: int = 5
    resample_size: int = 500
    n_continuations: int = 1

    theta_prior_low: float = 0.1
    theta_prior_high: float = 0.5
    rho_prior_a: float = 4.0
    rho_prior_b: float = 1.0

    theta_jitter_width: float = 0.05
    rho_jitter_width: float = 0.02

    sigma: float = 1.0
    bias_mode: str = "sample"
    #: Read-only: every window's whole ensemble is stepped as stacked state
    #: matrices by the batched engine, sharded across the executor.
    engine: ClassVar[str] = SMCConfig.engine
    steps_per_day: int = 4
    #: Shard layout: members per shard, or an explicit shard
    #: count; the default "auto" policy cuts one shard per executor worker
    #: (see repro.hpc.sharding).
    shard_size: int | None = None
    n_shards: int | str = "auto"
    #: Adaptive proposal-cloud size controller: "fixed" (classic
    #: behaviour) or "ess" (grow/shrink on the post-weighting ESS
    #: fraction); options are the ESSTargetPolicy keywords and only apply
    #: to "ess" (see repro.core.ensemble_control).  The posterior keeps
    #: resample_size.
    size_policy: str = "fixed"
    size_policy_options: dict = field(default_factory=dict)
    #: Tempered rescue of degenerate windows: when enabled, a window whose
    #: pre-resampling ESS fraction drops below temper_threshold is resampled
    #: through the staged tempered bridge (repro.core.adaptive) instead of a
    #: single pass; temper_ess_floor is the incremental ESS floor each stage
    #: keeps on the population the previous stage resampled.  A bridge cut
    #: short by its stage cap is flagged temper_truncated in diagnostics.
    temper_degenerate: bool = False
    temper_threshold: float = DEGENERACY_THRESHOLD
    temper_ess_floor: float = 0.5

    executor: str = "serial"
    max_workers: int | None = None

    base_seed: int = 20240215

    #: The shard RetryPolicy (repro.hpc.faults) every dispatch runs under:
    #: one attempt fails fast with a structured ShardRetryError; more
    #: re-execute failed / timed-out / dropped shards with deterministic
    #: backoff, serially in-process on the final attempt.  Results stay
    #: bit-identical (shard outputs are pure functions of their payload).
    retry_attempts: int = 1
    retry_timeout: float | None = None
    retry_backoff: float = 0.0
    #: Durable run state: persist each window's resampled posterior to this
    #: directory (CheckpointStore layout) and, with resume=True, restart
    #: from the last complete window instead of from scratch.
    checkpoint_dir: str | None = None
    resume: bool = False
    #: Retention GC: after a successful run, keep only the newest N sealed
    #: windows in the checkpoint store (CheckpointStore.prune; None keeps
    #: everything).  Pruning runs post-run because batch resume restores a
    #: gapless window prefix; the streaming service prunes continuously.
    checkpoint_keep_last: int | None = None

    def __post_init__(self) -> None:
        # The executor, the SMC config (with its retry policy) and the
        # observation model are built only when the run starts; check all
        # three up front, so a bad knob is not first met inside a shard.
        if self.executor not in EXECUTOR_SPECS:
            raise ValueError(f"executor must be one of "
                             f"{list(EXECUTOR_SPECS)}, got {self.executor!r}")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        try:
            self.smc_config()
            self.observation_model()
        except ValueError as exc:
            # Name the config field, not the RetryPolicy or bias-model one.
            name, _, rule = str(exc).partition(" ")
            raise ValueError(f"{_FIELD_NAMES.get(name, name)} {rule}") \
                from None

    # ------------------------------------------------------------------ #
    def schedule(self) -> WindowSchedule:
        return WindowSchedule.from_breaks(list(self.window_breaks))

    def prior(self) -> IndependentProduct:
        return IndependentProduct({
            "theta": Uniform(self.theta_prior_low, self.theta_prior_high),
            "rho": Beta(self.rho_prior_a, self.rho_prior_b),
        })

    def jitter(self) -> JointJitter:
        return paper_window_jitter(theta_width=self.theta_jitter_width,
                                   rho_width=self.rho_jitter_width)

    def observation_model(self) -> ObservationModel:
        return paper_observation_model(sigma=self.sigma,
                                       bias_mode=self.bias_mode)

    def smc_config(self) -> SMCConfig:
        return SMCConfig(
            n_parameter_draws=self.n_parameter_draws,
            n_replicates=self.n_replicates,
            resample_size=self.resample_size,
            n_continuations=self.n_continuations,
            engine_options={"steps_per_day": self.steps_per_day},
            shard_size=self.shard_size,
            n_shards=self.n_shards,
            base_seed=self.base_seed,
            size_policy=self.size_policy,
            size_policy_options=dict(self.size_policy_options),
            temper_degenerate=self.temper_degenerate,
            temper_threshold=self.temper_threshold,
            temper_ess_floor=self.temper_ess_floor,
            retry=self.retry_policy(),
        )

    def retry_policy(self) -> RetryPolicy:
        """The configured shard-retry policy (one attempt = fail fast)."""
        return RetryPolicy(max_attempts=self.retry_attempts,
                           timeout_seconds=self.retry_timeout,
                           backoff_seconds=self.retry_backoff)

    def checkpoint_store(self) -> CheckpointStore | None:
        """The configured durable window store (None = no persistence)."""
        if self.checkpoint_dir is None:
            return None
        return CheckpointStore(self.checkpoint_dir)

    def make_executor(self) -> Executor:
        return make_executor(self.executor, max_workers=self.max_workers)

    def disease_params(self, base: DiseaseParameters | None = None,
                       ) -> DiseaseParameters:
        """``base``, or the default parameterisation when it is ``None``."""
        return base if base is not None else DiseaseParameters()

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        d = asdict(self)
        d["window_breaks"] = list(self.window_breaks)
        return d
