"""Fixture: a fully contract-compliant module — table stream tags,
no RNG construction, dataclass executor payloads, complete annotations.
The linter must report nothing here."""

from dataclasses import dataclass

import numpy as np

from repro.hpc.executor import Executor
from repro.seir.seeding import (FORECAST_STREAM, PURPOSE_SMC_JITTER,
                                SeedSequenceBank, mix_seed)


@dataclass(frozen=True)
class MemberTask:
    payload: dict
    seed: int


def run_member(task: MemberTask) -> int:
    return len(task.payload) + task.seed


def draw_seed(base_seed: int, window_index: int) -> int:
    return mix_seed(base_seed, FORECAST_STREAM, window_index)


def purposed_rng(bank: SeedSequenceBank) -> np.random.Generator:
    return bank.ancillary_generator(purpose=PURPOSE_SMC_JITTER)


def dispatch(executor: Executor, payloads: list) -> list:
    tasks = [MemberTask(payload=p, seed=i) for i, p in enumerate(payloads)]
    return executor.map(run_member, tasks)


def ordered_from_set(seed_pool: set) -> np.ndarray:
    return np.array(sorted(seed_pool))
