"""Always-on calibration service (see ``docs/service.md``).

The batch calibrator answers "calibrate this fixed observation record";
this package answers "keep calibrating as observations arrive, and keep
serving forecasts no matter what" — the production shape the sequential
design exists for (re-calibration on data arrival is incremental, not
from-scratch).  Three subsystems:

* :mod:`~repro.service.ingest` — validating, quarantining observation
  intake: malformed / NaN / negative / out-of-order rows become structured
  :class:`~repro.service.ingest.IngestError` records, never calibrator
  input;
* :mod:`~repro.service.supervisor` — the window supervision loop: each
  ready window runs through
  :meth:`~repro.core.smc.SequentialCalibrator.step_window` under a
  deadline and a bounded restart-with-backoff budget
  (:class:`~repro.hpc.faults.RetryPolicy` semantics), with crash recovery
  via :class:`~repro.hpc.checkpoint_io.CheckpointStore` resume;
* :mod:`~repro.service.artifacts` — crash-safe forecast publication: each
  window's forecast artifact is written atomically and sealed with content
  hashes, and reads degrade gracefully to the last sealed artifact
  (tagged stale-with-age) instead of erroring.

The chaos harness that injects window-step faults and tears artifacts for
tests lives in :mod:`repro.testing.chaos`, not here.
"""

from .artifacts import ArtifactRead, ArtifactStore
from .ingest import IngestError, ObservationBuffer, SpoolIngest
from .supervisor import CalibrationService, ServiceConfig, ServiceEvent

__all__ = [
    "ArtifactRead", "ArtifactStore",
    "IngestError", "ObservationBuffer", "SpoolIngest",
    "CalibrationService", "ServiceConfig", "ServiceEvent",
]
