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

import json

import pytest

from repro.core import (SequentialCalibrator, SMCConfig, WindowSchedule,
                        paper_first_window_prior, paper_observation_model,
                        paper_window_jitter)
from repro.core.posterior import trajectory_ribbon
from repro.data import PiecewiseConstant
from repro.hpc import CheckpointStore, RetryPolicy
from repro.seir import CheckpointError, DiseaseParameters
from repro.sim import make_ground_truth
from repro.service import (ArtifactStore, CalibrationService,
                           ObservationBuffer, ServiceConfig)
from repro.testing.chaos import (ChaosCalibrator, ServiceFaultPlan,
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


class RecordingCalibrator(ChaosCalibrator):
    """A chaos proxy that also records the ``cloud`` every step was handed
    (``None``: the step simulated its own), per window, in call order."""

    def __init__(self, calibrator, plan, **kwargs):
        super().__init__(calibrator, plan, **kwargs)
        self.clouds = {}

    def step_window(self, index, *args, cloud=None, **kwargs):
        self.clouds.setdefault(index, []).append(cloud)
        return super().step_window(index, *args, cloud=cloud, **kwargs)


def make_service(truth, root, *, plan=None, config=None, base_seed=11,
                 **kwargs):
    cal = make_calibrator(truth, base_seed=base_seed)
    if plan is not None:
        cal = RecordingCalibrator(cal, plan, sleep=lambda _s: None)
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


def checkpoint_bytes(root):
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted((root / "ckpt").rglob("*")) if path.is_file()}


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


class TestNextWindowForecast:
    """Every window but the last publishes the cloud the next one weighs."""

    def test_artifact_is_the_cloud_the_next_window_weighs(self, baseline,
                                                         truth, tmp_path):
        _service, base_root, _events = baseline
        service = make_service(truth, tmp_path,
                               plan=ServiceFaultPlan.scripted())
        service.tick(filled_buffer(truth))
        assert artifact_bytes(tmp_path) == artifact_bytes(base_root)
        clouds = service.calibrator.clouds
        assert clouds[0] == [None]  # window 0 simulates its prior cloud
        (cloud,) = clouds[1]
        assert cloud is not None and cloud.pending.index == 1
        payload = json.loads(artifact_bytes(tmp_path)[0])
        start = BREAKS[1]
        assert payload["forecast_start_day"] == start
        assert payload["n_trajectories"] == cloud.pending.n_members
        ribbon = trajectory_ribbon(
            cloud.ensemble.segments.window(start, start + 4), "cases",
            (0.05, 0.25, 0.5, 0.75, 0.95))
        bands = payload["channels"]["cases"]["quantiles"]
        for q, band in bands.items():
            assert band == [float(v) for v in ribbon.band(float(q))]

    def test_payload_alone_derives_plans_and_simulates(self, baseline,
                                                       truth, tmp_path):
        """``_forecast_payload`` works on a bare result, with no tick having
        planned the next window: the same artifact."""
        _service, base_root, _events = baseline
        service = make_service(truth, tmp_path)
        cal = service.calibrator
        window = list(cal.schedule)[0]
        result = cal.step_window(0, window, truth.observations())
        payload = service._forecast_payload(result)
        assert payload == json.loads(artifact_bytes(base_root)[0])

    def test_longer_horizon_continues_the_cloud(self, truth, tmp_path):
        """A horizon past the next window's end continues the cloud on the
        forecast stream: contiguous days, the same bytes after a kill
        between ticks, and only the continuation moves with
        ``forecast_seed``."""
        def config(seed):
            return ServiceConfig(restart=RetryPolicy(max_attempts=2),
                                 horizon_days=10, forecast_seed=seed)

        straight = make_service(truth, tmp_path / "a", config=config(0))
        straight.tick(filled_buffer(truth))
        killed = make_service(truth, tmp_path / "b", config=config(0))
        killed.tick(filled_buffer(truth, up_to_day=BREAKS[1]))
        del killed
        resumed = make_service(truth, tmp_path / "b", config=config(0))
        resumed.resume()
        resumed.tick(filled_buffer(truth, frontier=BREAKS[1]))
        assert artifact_bytes(tmp_path / "b") == \
            artifact_bytes(tmp_path / "a")
        reseeded = make_service(truth, tmp_path / "c", config=config(1))
        reseeded.tick(filled_buffer(truth))

        first = json.loads(artifact_bytes(tmp_path / "a")[0])
        other = json.loads(artifact_bytes(tmp_path / "c")[0])
        window_days = BREAKS[2] - BREAKS[1]
        for q, band in first["channels"]["cases"]["quantiles"].items():
            assert len(band) == 10
            other_band = other["channels"]["cases"]["quantiles"][q]
            assert band[:window_days] == other_band[:window_days]
        assert first["channels"] != other["channels"]


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

    def test_kill_between_ticks_simulates_the_cloud_again(self, baseline,
                                                          truth, tmp_path):
        """A fresh process has no kept cloud: window 1's step simulates it,
        to byte-identical checkpoints and artifacts."""
        _service, base_root, _events = baseline
        first = make_service(truth, tmp_path)
        first.tick(filled_buffer(truth, up_to_day=BREAKS[1]))
        del first
        second = make_service(truth, tmp_path,
                              plan=ServiceFaultPlan.scripted())
        second.resume()
        second.tick(filled_buffer(truth, frontier=BREAKS[1]))
        assert second.calibrator.clouds == {1: [None]}
        assert checkpoint_bytes(tmp_path) == checkpoint_bytes(base_root)
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

    def test_republish_keeps_the_cloud_for_the_next_tick(self, baseline,
                                                         truth, tmp_path):
        import shutil
        _service, base_root, _events = baseline
        first = make_service(truth, tmp_path)
        first.tick(filled_buffer(truth, up_to_day=BREAKS[1]))
        shutil.rmtree(tmp_path / "art" / "window_000")
        del first
        second = make_service(truth, tmp_path,
                              plan=ServiceFaultPlan.scripted())
        second.resume()
        second.tick(filled_buffer(truth, frontier=BREAKS[1]))
        (cloud,) = second.calibrator.clouds[1]
        assert cloud is not None
        assert checkpoint_bytes(tmp_path) == checkpoint_bytes(base_root)

    def test_resume_on_fresh_store_is_none(self, truth, tmp_path):
        assert make_service(truth, tmp_path).resume() is None

    def test_store_from_other_run_is_refused(self, baseline, truth):
        _service, root, _events = baseline
        with pytest.raises(CheckpointError, match="different run"):
            make_service(truth, root, base_seed=999)

    def test_store_from_other_streams_is_refused(self, truth, tmp_path):
        """The observed streams key the store: a cases+deaths service on
        a cases-only store is refused, naming ``streams``; a cases-only
        service still resumes it."""
        make_service(truth, tmp_path).tick(
            filled_buffer(truth, up_to_day=BREAKS[1]))
        with pytest.raises(CheckpointError, match="streams"):
            make_service(truth, tmp_path, streams=("cases", "deaths"))
        event = make_service(truth, tmp_path).resume()
        assert event is not None and event.kind == "resumed"
        assert event.window_index == 0

    def test_buffer_of_other_streams_is_refused(self, truth, tmp_path):
        service = make_service(truth, tmp_path)
        with pytest.raises(ValueError, match="streams"):
            service.tick(ObservationBuffer())  # cases + deaths


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
        # both attempts were handed the cloud kept when window 0 sealed
        first, second = service.calibrator.clouds[1]
        assert first is not None and second is first
        _base_service, base_root, _events = baseline
        assert artifact_bytes(tmp_path) == artifact_bytes(base_root)
        assert checkpoint_bytes(tmp_path) == checkpoint_bytes(base_root)

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

    class FakeTime:
        """A clock that moves only when slept on."""

        def __init__(self):
            self.now = 0.0

        def clock(self):
            return self.now

        def sleep(self, seconds):
            self.now += seconds

    def deadline_service(self, truth, root, time, calibrator):
        config = ServiceConfig(
            restart=RetryPolicy(max_attempts=2, timeout_seconds=1.0),
            horizon_days=4)
        return CalibrationService(
            calibrator, CheckpointStore(root / "ckpt"),
            ArtifactStore(root / "art"), config,
            clock=time.clock, sleep=time.sleep)

    def test_delay_fault_trips_the_deadline(self, truth, tmp_path):
        time = self.FakeTime()
        plan = ServiceFaultPlan.scripted(
            WindowFault("delay", window=1, delay_seconds=5.0))
        calibrator = ChaosCalibrator(make_calibrator(truth), plan,
                                     sleep=time.sleep)
        service = self.deadline_service(truth, tmp_path, time, calibrator)
        events = service.tick(filled_buffer(truth))
        assert service.done
        assert [(e.kind, e.window_index) for e in events] == [
            ("window_complete", 0), ("published", 0),
            ("deadline_missed", 1), ("window_complete", 1),
            ("published", 1)]

    def test_next_cloud_counts_against_the_deadline(self, truth, tmp_path):
        """The window turn includes simulating the next window's cloud:
        a slow one makes the window that sealed late."""
        time = self.FakeTime()

        class SlowCloud(ChaosCalibrator):
            def simulate_window(self, *args, **kwargs):
                time.sleep(5.0)
                return self._inner.simulate_window(*args, **kwargs)

        calibrator = SlowCloud(make_calibrator(truth),
                               ServiceFaultPlan.scripted())
        service = self.deadline_service(truth, tmp_path, time, calibrator)
        events = service.tick(filled_buffer(truth))
        missed = [e.window_index for e in events
                  if e.kind == "deadline_missed"]
        assert missed == [0]


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
