"""Cold start: importing ``repro`` and running a default calibration, forecast
and serve window must never load scipy or multiprocessing, a calibration
must not load ``numpy.ma``, and the CLI must never load a test oracle.

``scipy.stats`` costs most of a cold ``import repro``; only the non-uniform
prior densities and SBC helpers use it, and they import it on first call.
``multiprocessing`` comes with the process pool, which only
``ProcessExecutor`` builds, so a serial run never pays for it.  numpy's
plain ``np.unique`` imports ``numpy.ma`` (about 1 MB of RSS), so the
calibration path counts distinct values without it; the forecast's
``np.quantile`` still loads it inside numpy.
The scalar engines, the per-particle weighting reference and the chaos
harnesses live only in ``repro.testing``; no production module imports that
package, and the CLI, ``repro.hpc`` and ``repro.service`` are checked.
Each check runs in a fresh interpreter, since this test session has long
since loaded scipy and ``repro.testing`` itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import json
import sys
import tempfile
from pathlib import Path


def loaded_heavy():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("scipy", "multiprocessing"))


import repro
import repro.cli
import repro.service

after_import = loaded_heavy()

from repro.core import SequentialCalibrator
from repro.hpc import CheckpointStore
from repro.inference import CalibrationConfig, calibrate
from repro.service import (ArtifactStore, CalibrationService,
                           ObservationBuffer, ServiceConfig)
from repro.sim import make_fig2_ground_truth

truth = make_fig2_ground_truth(seed=777, horizon=34)
observations = truth.observations()
config = CalibrationConfig(window_breaks=(20, 27, 34), n_parameter_draws=8,
                           n_replicates=2, resample_size=10,
                           executor="serial")
result = calibrate(observations, config)
assert len(result.windows) == 2
after_calibrate = sorted(m for m in sys.modules
                         if m.split(".")[:2] == ["numpy", "ma"])

executor = config.make_executor()
calibrator = SequentialCalibrator(
    base_params=config.disease_params(None), prior=config.prior(),
    jitter=config.jitter(), observation_model=config.observation_model(),
    schedule=config.schedule(), config=config,
    executor=executor)
with tempfile.TemporaryDirectory() as tmp:
    root = Path(tmp)
    service = CalibrationService(calibrator, CheckpointStore(root / "ckpt"),
                                 ArtifactStore(root / "art"), ServiceConfig())
    buffer = ObservationBuffer(
        {s.name: (s.channel, s.biased) for s in observations})
    for s in observations:
        rows = [(int(d), float(v)) for d, v in zip(s.series.days,
                                                    s.series.values)]
        assert buffer.add_rows(s.name, rows) == []
    service.tick(buffer)
    assert service.done and service.failed_window is None
executor.close()

print(json.dumps({"after_import": after_import, "after_run": loaded_heavy(),
                  "after_calibrate": after_calibrate}))
"""


ORACLE_SCRIPT = r"""
import json
import sys

import repro.cli
import repro.hpc
import repro.service

print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[:2] in (["repro", "testing"],
                                                ["repro", "baselines"]))))
"""


def _last_json_line(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def default_runs():
    return _last_json_line(SCRIPT)


def test_import_and_default_runs_never_load_scipy(default_runs):
    assert default_runs["after_import"] == []
    assert default_runs["after_run"] == []


def test_serial_calibration_never_loads_numpy_ma(default_runs):
    assert default_runs["after_calibrate"] == []


def test_cli_import_loads_no_test_oracle():
    assert _last_json_line(ORACLE_SCRIPT) == []
