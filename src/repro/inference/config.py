"""High-level calibration configuration.

:class:`CalibrationConfig` is the :class:`~repro.core.smc.SMCConfig` of a
run plus everything else it needs, in one JSON-serialisable object: window
schedule, jitter widths, likelihood noise, executor choice and the durable
store.  The SMC knobs (ensemble sizes, ``steps_per_day``, shard layout,
size policy, tempering, ``retry_*``) are declared, defaulted and
documented once, on :class:`~repro.core.smc.SMCConfig`, so the config is
itself the calibrator's ``config``.  It builds the other core objects
(priors, jitters, observation model, executor) on demand, so scripts and
benches configure runs declaratively.  The first-window prior is the
paper's (:func:`~repro.core.priors.paper_first_window_prior`), not a knob.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..core.observation import ObservationModel
from ..core.priors import IndependentProduct, paper_first_window_prior
from ..core.proposals import JointJitter, paper_window_jitter
from ..core.smc import SMCConfig
from ..core.window import WindowSchedule
from ..hpc.checkpoint_io import CheckpointStore
from ..hpc.executor import EXECUTOR_SPECS, Executor, make_executor
from ..seir.parameters import DiseaseParameters

__all__ = ["CalibrationConfig"]


@dataclass(frozen=True)
class CalibrationConfig(SMCConfig):
    """Declarative configuration of one sequential calibration run.

    Attributes mirror section V of the paper at laptop scale; paper scale
    is ``n_parameter_draws=25_000, n_replicates=20, resample_size=10_000``.
    """

    window_breaks: tuple[int, ...] = (20, 34, 48, 62, 76)

    theta_jitter_width: float = 0.05
    rho_jitter_width: float = 0.02

    sigma: float = 1.0
    bias_mode: str = "sample"

    executor: str = "serial"
    max_workers: int | None = None

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
        # The executor and the observation model are built only when the
        # run starts; check them up front with the SMC knobs, so a bad knob
        # is not first met inside a shard.
        super().__post_init__()
        if self.executor not in EXECUTOR_SPECS:
            raise ValueError(f"executor must be one of "
                             f"{list(EXECUTOR_SPECS)}, got {self.executor!r}")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.observation_model()

    # ------------------------------------------------------------------ #
    def schedule(self) -> WindowSchedule:
        return WindowSchedule.from_breaks(list(self.window_breaks))

    def prior(self) -> IndependentProduct:
        return paper_first_window_prior()

    def jitter(self) -> JointJitter:
        return paper_window_jitter(theta_width=self.theta_jitter_width,
                                   rho_width=self.rho_jitter_width)

    def observation_model(self) -> ObservationModel:
        return ObservationModel(sigma=self.sigma, bias_mode=self.bias_mode)

    def smc_config(self) -> SMCConfig:
        """The config itself, which is the calibrator's SMC config (the
        perfbench workloads still call this)."""
        return self

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
