"""The supervision loop: bit-identity under kills and chaos, degradation.

Acceptance properties (see ISSUE/docs/service.md):

* a service run killed at any point and restarted resumes to artifacts
  **byte-identical** to a straight-through run — including a kill landing
  between the checkpoint seal and the artifact seal;
* window-step crashes inside the restart budget leave artifacts
  byte-identical; budget exhaustion is sticky and degrades reads to the
  last sealed artifact, tagged stale-with-age;
* a torn artifact is never served.
"""

import numpy as np
import pytest

from repro.core import (SequentialCalibrator, SMCConfig, WindowSchedule,
                        paper_first_window_prior, paper_observation_model,
                        paper_window_jitter)
from repro.data import PiecewiseConstant
from repro.hpc import CheckpointStore, RetryPolicy
from repro.seir import CheckpointError, DiseaseParameters
from repro.sim import make_ground_truth
from repro.service import (ArtifactStore, CalibrationService, ChaosCalibrator,
                           ObservationBuffer, ServiceConfig, ServiceFaultPlan,
                           WindowFault, tear_artifact)

BREAKS = (8, 15, 22)
N_WINDOWS = len(BREAKS) - 1


@pytest.fixture(scope="module")
def truth():
    params = DiseaseParameters(population=50_000, initial_exposed=100)
    return make_ground_truth(params=params, horizon=25, seed=321,
                             theta_schedule=PiecewiseConstant.constant(0.30),
                             rho_schedule=PiecewiseConstant.constant(0.7))


def make_calibrator(truth, base_seed=11):
    return SequentialCalibrator(
        base_params=truth.params,
        prior=paper_first_window_prior(),
        jitter=paper_window_jitter(),
        observation_model=paper_observation_model(),
        schedule=WindowSchedule.from_breaks(list(BREAKS)),
        config=SMCConfig(n_parameter_draws=10, n_replicates=2,
                         resample_size=12, base_seed=base_seed, n_shards=2))


def make_service(truth, root, *, plan=None, config=None, base_seed=11,
                 **kwargs):
    cal = make_calibrator(truth, base_seed=base_seed)
    if plan is not None:
        cal = ChaosCalibrator(cal, plan, sleep=lambda _s: None)
    return CalibrationService(
        cal, CheckpointStore(root / "ckpt"), ArtifactStore(root / "art"),
        config or ServiceConfig(restart=RetryPolicy(max_attempts=2),
                                horizon_days=4),
        sleep=lambda _s: None, **kwargs)


def filled_buffer(truth, *, frontier=0, up_to_day=None):
    buf = ObservationBuffer({"cases": ("cases", True)}, frontier=frontier)
    cases = truth.observations()["cases"].series
    rows = [(int(d), float(v)) for d, v in zip(cases.days, cases.values)
            if up_to_day is None or d < up_to_day]
    assert buf.add_rows("cases", rows) == []
    return buf


def artifact_bytes(root):
    return {i: (root / "art" / f"window_{i:03d}" / "forecast.json").read_bytes()
            for i in range(N_WINDOWS)}


@pytest.fixture(scope="module")
def baseline(truth, tmp_path_factory):
    """One straight-through service run; everything else compares to it."""
    root = tmp_path_factory.mktemp("baseline")
    service = make_service(truth, root)
    assert service.resume() is None
    events = service.tick(filled_buffer(truth))
    assert service.done and service.failed_window is None
    return service, root, events


class TestStraightThrough:
    def test_all_windows_seal_in_order(self, baseline):
        service, root, events = baseline
        assert [e.kind for e in events] == \
            ["window_complete", "published"] * N_WINDOWS
        assert ArtifactStore(root / "art").sealed_windows() == \
            list(range(N_WINDOWS))
        assert CheckpointStore(root / "ckpt").stored_windows() == \
            list(range(N_WINDOWS))

    def test_head_read_is_fresh(self, baseline, truth):
        service, _root, _events = baseline
        read = service.read_forecast(filled_buffer(truth))
        assert read.window_index == N_WINDOWS - 1
        assert not read.stale and read.windows_behind == 0
        assert read.age_seconds >= 0.0

    def test_payload_is_servable_and_complete(self, baseline):
        service, _root, _events = baseline
        payload = service.read_forecast().payload
        assert payload["window_index"] == N_WINDOWS - 1
        assert payload["horizon_days"] == 4
        bands = payload["channels"]["cases"]["quantiles"]
        assert set(bands) == {"0.05", "0.25", "0.5", "0.75", "0.95"}
        assert all(len(band) == 4 for band in bands.values())
        assert payload["posterior_summary"]["n_particles"] == 12
        assert payload["diagnostics"]["shard_failures"] == 0

    def test_service_matches_batch_run_bitwise(self, baseline, truth,
                                               tmp_path):
        """Streaming one window at a time is the batch run, bit for bit."""
        service, root, _events = baseline
        batch_store = CheckpointStore(tmp_path / "ckpt")
        make_calibrator(truth).run(truth.observations(), store=batch_store)
        service_store = CheckpointStore(root / "ckpt")
        for index in range(N_WINDOWS):
            assert batch_store.load_window_meta(index) == \
                service_store.load_window_meta(index)


class TestKillAndRestart:
    def test_kill_after_window_seal_resumes_bit_identical(self, baseline,
                                                          truth, tmp_path):
        service, base_root, _events = baseline
        # phase 1: only window 0's data has arrived; then the process dies
        first = make_service(truth, tmp_path)
        first.tick(filled_buffer(truth, up_to_day=BREAKS[1]))
        assert first.next_window_index == 1
        del first  # the "crash": all in-memory state is gone

        # phase 2: fresh process, resume from disk, full spool re-scan
        second = make_service(truth, tmp_path)
        resumed = second.resume()
        assert resumed is not None and resumed.window_index == 0
        second.tick(filled_buffer(truth, frontier=BREAKS[1]))
        assert second.done
        assert artifact_bytes(tmp_path) == artifact_bytes(base_root)

    def test_kill_between_checkpoint_and_artifact_heals(self, baseline,
                                                        truth, tmp_path):
        """The one crash point where the stores disagree: the checkpoint
        sealed but the artifact did not.  Resume must re-publish it,
        byte-identical."""
        import shutil
        service, base_root, _events = baseline
        first = make_service(truth, tmp_path)
        first.tick(filled_buffer(truth, up_to_day=BREAKS[1]))
        shutil.rmtree(tmp_path / "art" / "window_000")  # artifact never landed
        del first

        second = make_service(truth, tmp_path)
        second.resume()
        kinds = [e.kind for e in second.events]
        assert kinds == ["resumed", "republished"]
        second.tick(filled_buffer(truth, frontier=BREAKS[1]))
        assert artifact_bytes(tmp_path) == artifact_bytes(base_root)

    def test_resume_on_fresh_store_is_none(self, truth, tmp_path):
        assert make_service(truth, tmp_path).resume() is None

    def test_store_from_other_run_is_refused(self, baseline, truth):
        _service, root, _events = baseline
        with pytest.raises(CheckpointError, match="different run"):
            make_service(truth, root, base_seed=999)


class TestChaos:
    def test_crash_within_budget_is_bit_identical(self, baseline, truth,
                                                  tmp_path):
        plan = ServiceFaultPlan.scripted(
            WindowFault("crash", window=1, attempt=1))
        service = make_service(truth, tmp_path, plan=plan)
        events = service.tick(filled_buffer(truth))
        assert service.done
        assert "window_restart" in [e.kind for e in events]
        assert service.calibrator.injected == {0: 1, 1: 2}
        _base_service, base_root, _events = baseline
        assert artifact_bytes(tmp_path) == artifact_bytes(base_root)

    def test_budget_exhaustion_is_sticky_and_reads_degrade(self, truth,
                                                           tmp_path):
        plan = ServiceFaultPlan.scripted(
            WindowFault("crash", window=1, attempt=1),
            WindowFault("crash", window=1, attempt=2))
        service = make_service(truth, tmp_path, plan=plan)
        buffer = filled_buffer(truth)
        events = service.tick(buffer)
        assert service.failed_window == 1 and not service.done
        assert [e.kind for e in events] == \
            ["window_complete", "published", "window_restart", "window_failed"]
        # degraded read: the sealed window 0 serves, tagged stale-with-age
        read = service.read_forecast(buffer)
        assert read.window_index == 0
        assert read.stale and read.windows_behind == 1
        assert read.age_seconds >= 0.0
        # holding position: further ticks do nothing
        assert service.tick(buffer) == []

    def test_fresh_budget_after_restart_recovers(self, baseline, truth,
                                                 tmp_path):
        """The daemon-restart story: sticky failure, new process, clean
        finish — and still bit-identical artifacts."""
        plan = ServiceFaultPlan.scripted(
            WindowFault("crash", window=1, attempt=1),
            WindowFault("crash", window=1, attempt=2))
        first = make_service(truth, tmp_path, plan=plan)
        first.tick(filled_buffer(truth))
        assert first.failed_window == 1
        del first

        second = make_service(truth, tmp_path)  # no faults this time
        resumed = second.resume()
        assert resumed is not None and resumed.window_index == 0
        second.tick(filled_buffer(truth, frontier=BREAKS[1]))
        assert second.done
        _base_service, base_root, _events = baseline
        assert artifact_bytes(tmp_path) == artifact_bytes(base_root)

    def test_seeded_plan_is_reproducible(self):
        kwargs = dict(n_windows=6, rates={"crash": 0.5}, max_attempts=2)
        a = ServiceFaultPlan.seeded(7, **kwargs)
        b = ServiceFaultPlan.seeded(7, **kwargs)
        c = ServiceFaultPlan.seeded(8, **kwargs)
        assert a == b
        assert a != c
        assert a.faults  # at 50% over 12 cells, silence would be a bug

    def test_torn_head_is_never_served(self, truth, tmp_path):
        service = make_service(truth, tmp_path)
        buffer = filled_buffer(truth)
        service.tick(buffer)
        tear_artifact(service.artifacts, N_WINDOWS - 1)
        read = service.read_forecast(buffer)
        assert read.window_index == N_WINDOWS - 2
        assert read.stale and read.windows_behind == 1


class TestDeadline:
    def test_slow_window_degrades_but_completes(self, truth, tmp_path):
        class TickingClock:
            def __init__(self, step):
                self.now, self.step = 0.0, step

            def __call__(self):
                self.now += self.step
                return self.now

        config = ServiceConfig(
            restart=RetryPolicy(max_attempts=2, timeout_seconds=1.0),
            horizon_days=4)
        service = make_service(truth, tmp_path, config=config,
                               clock=TickingClock(step=3.0))
        events = service.tick(filled_buffer(truth))
        assert service.done  # a deadline miss never discards the result
        missed = [e for e in events if e.kind == "deadline_missed"]
        assert len(missed) == N_WINDOWS
        assert "falling behind" in missed[0].detail


class TestRetentionAndPartialFeeds:
    def test_keep_last_prunes_both_stores_and_resume_survives(self, truth,
                                                              tmp_path):
        config = ServiceConfig(restart=RetryPolicy(max_attempts=2),
                               horizon_days=4, keep_last=1)
        service = make_service(truth, tmp_path, config=config)
        events = service.tick(filled_buffer(truth))
        assert "pruned" in [e.kind for e in events]
        assert ArtifactStore(tmp_path / "art").sealed_windows() == \
            [N_WINDOWS - 1]
        assert CheckpointStore(tmp_path / "ckpt").stored_windows() == \
            [N_WINDOWS - 1]
        del service
        # resume needs only the newest sealed window — pruning can't hurt it
        second = make_service(truth, tmp_path, config=config)
        resumed = second.resume()
        assert resumed is not None and \
            resumed.window_index == N_WINDOWS - 1
        assert second.done

    def test_windows_wait_for_their_data(self, truth, tmp_path):
        service = make_service(truth, tmp_path)
        empty = ObservationBuffer({"cases": ("cases", True)})
        assert service.tick(empty) == []
        assert service.next_window_index == 0
        assert not service.ready(empty)
        # half of window 0 is not enough
        partial = filled_buffer(truth, up_to_day=BREAKS[0] + 3)
        assert service.tick(partial) == []
        # the moment coverage completes, the window runs
        full = filled_buffer(truth, up_to_day=BREAKS[1])
        assert service.ready(full)
        events = service.tick(full)
        assert [e.kind for e in events] == ["window_complete", "published"]
        assert full.frontier == BREAKS[1]

    def test_expected_head_tracks_ingest_not_calibration(self, truth,
                                                         tmp_path):
        service = make_service(truth, tmp_path)
        assert service.expected_head() == -1
        buffer = filled_buffer(truth)  # both windows' data present
        assert service.expected_head(buffer) == N_WINDOWS - 1


class TestServiceConfigValidation:
    """A config the publish step would reject must fail at construction:
    accepted, it seals window 0's checkpoint, then raises while publishing
    and again in every resume's republish step."""

    def test_descending_quantiles_rejected(self):
        for quantiles in ((0.95, 0.05), (0.5, 1.5)):
            with pytest.raises(ValueError,
                               match="quantiles must be ascending"):
                ServiceConfig(quantiles=quantiles)

    def test_unknown_forecast_channel_rejected(self):
        with pytest.raises(ValueError, match="unknown forecast channel"):
            ServiceConfig(forecast_channels=("cases", "hospitalisations"))

    def test_every_simulator_channel_accepted(self):
        channels = ("cases", "deaths", "hospital_census", "icu_census")
        assert ServiceConfig(forecast_channels=channels) \
            .forecast_channels == channels
