"""Generators crossing the executor payload boundary (REPRO503 x3).

Three escape shapes: a payload dataclass declaring a generator-typed
field, a bank-derived generator embedded in the dispatched task
expressions, and a dispatch target whose signature demands a generator
parameter.  In every case the pickled generator state forks the stream
per worker and breaks the ``(base_seed, shard layout)`` contract.

The purpose itself is a seeding table constant, so only the leak is flagged.
"""

from dataclasses import dataclass

import numpy as np

from repro.seir.seeding import PURPOSE_SMC_RESAMPLE


@dataclass(frozen=True)
class LeakyTask:
    member: int
    rng: np.random.Generator  # generator field riding the payload


def run_leaky(task):
    return task.rng.normal()


def run_with_rng(member: int, rng: np.random.Generator) -> float:
    return float(rng.normal()) + member


def launch(executor, bank, n):
    rng = bank.ancillary_generator(purpose=PURPOSE_SMC_RESAMPLE)
    tasks = [LeakyTask(member=i, rng=rng) for i in range(n)]
    return executor.map(run_leaky, tasks)


def launch_param(executor, members):
    return executor.map(run_with_rng, members)
