"""Trajectory channels are exact int32 count matrices at every layer.

The engine writes them, ``simulate_groups`` hands a one-shard spec's
arrays back as they are (multi-shard specs are stacked), the assembled
ensemble keeps them through resampling and continuation, and a forecast
carries them.  The memory test bounds one window-0 simulation's heap
peak, which float64 channels and the one-shard stacking copy exceed.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import (ObservationModel, SequentialCalibrator, SMCConfig,
                        WindowSchedule, paper_first_window_prior,
                        paper_window_jitter)
from repro.data import PiecewiseConstant
from repro.hpc import (GroupSpec, ProcessExecutor, SerialExecutor,
                       simulate_groups)
from repro.inference import forecast_from_posterior
from repro.inference.forecast import forecast_from_cloud
from repro.seir import BatchedBinomialLeapEngine, DiseaseParameters
from repro.sim import make_ground_truth

PARAMS = DiseaseParameters(population=50_000, initial_exposed=100)


def assert_int32(batch):
    for channel in (batch.infections, batch.deaths, batch.hospital_census,
                    batch.icu_census):
        assert channel.dtype == np.int32


def spec(n, params=PARAMS):
    thetas = np.random.default_rng(3).uniform(0.1, 0.5, n)
    return GroupSpec(params=params, seeds=np.arange(n, dtype=np.int64) + 11,
                     thetas=thetas, start_day=0)


@pytest.fixture(scope="module")
def windows():
    truth = make_ground_truth(params=PARAMS, horizon=30, seed=5,
                              theta_schedule=PiecewiseConstant.constant(0.3),
                              rho_schedule=PiecewiseConstant.constant(0.7))
    calibrator = SequentialCalibrator(
        base_params=PARAMS, prior=paper_first_window_prior(),
        jitter=paper_window_jitter(), observation_model=ObservationModel(),
        schedule=WindowSchedule.from_breaks([10, 20, 30]),
        config=SMCConfig(n_parameter_draws=12, n_replicates=2,
                         resample_size=16, base_seed=9))
    return calibrator.run(truth.observations())


class TestChannelsAreInt32:
    def test_engine_run_until(self):
        engine = BatchedBinomialLeapEngine(PARAMS, [1, 2, 3])
        assert_int32(engine.run_until(6))

    def test_serial_single_shard(self):
        [(batch, _)] = simulate_groups(SerialExecutor(), [spec(8)],
                                       end_day=5)
        assert_int32(batch)

    def test_two_shard_process_pool(self):
        with ProcessExecutor(max_workers=2) as executor:
            [(batch, state)] = simulate_groups(executor, [spec(8)],
                                               end_day=5, n_shards=2)
        assert_int32(batch)
        assert batch.n_particles == state.n_particles == 8

    def test_assembled_segments_and_histories(self, windows):
        for result in windows:
            assert_int32(result.posterior.segments)
            assert_int32(result.posterior.histories)

    def test_forecasts(self, windows):
        posterior = windows[-1].posterior
        assert_int32(forecast_from_posterior(posterior, 4).batch)
        assert_int32(forecast_from_cloud(posterior, 5).batch)  # a slice
        assert_int32(forecast_from_cloud(posterior, 14).batch)  # extended


class TestOneShardIsNotCopied:
    def test_stacked_outputs_are_the_shards_own_arrays(self, monkeypatch):
        import repro.hpc.sharding as sharding
        shards = []
        run_shard = sharding.run_shard

        def recording(task):
            shards.append(run_shard(task))
            return shards[-1]

        monkeypatch.setattr(sharding, "run_shard", recording)
        [(batch, state)] = simulate_groups(SerialExecutor(), [spec(6)],
                                           end_day=4)
        [shard] = shards
        assert batch is shard.batch and state is shard.state

    def test_multi_shard_specs_still_stack_in_member_order(self):
        group = spec(6)
        [(whole, state)] = simulate_groups(SerialExecutor(), [group],
                                           end_day=4, n_shards=2)
        halves = simulate_groups(SerialExecutor(), [
            GroupSpec(params=PARAMS, seeds=group.seeds[lo:hi],
                      thetas=group.thetas[lo:hi], start_day=0)
            for lo, hi in ((0, 3), (3, 6))], end_day=4)
        assert np.array_equal(whole.infections, np.concatenate(
            [batch.infections for batch, _ in halves]))
        assert np.array_equal(state.seeds, group.seeds)


#: Heap peak bound (bytes) of one single-shard window-0 simulation of
#: 2,000 members over days [0, 34) at the default 2.7M population.  With
#: int32 channels and no stacking copy it peaks at ~2.5 MB; float64
#: channels plus the copy peaked at ~5.1 MB.
WINDOW0_PEAK_BOUND = 3_500_000


def test_window0_simulation_heap_peak():
    group = spec(2_000, DiseaseParameters())
    simulate_groups(SerialExecutor(), [group], end_day=1)  # warm caches
    tracemalloc.start()
    try:
        [(batch, _)] = simulate_groups(SerialExecutor(), [group], end_day=34)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert batch.infections.shape == (2_000, 34)
    assert peak < WINDOW0_PEAK_BOUND, peak
