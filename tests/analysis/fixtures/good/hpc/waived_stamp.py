"""Fixture: one line excused for two rule families — the per-file
wall-clock rule (REPRO201; ``hpc/`` is a deterministic subsystem) and the
purity proof of the dispatch target that reads the clock (REPRO511).  One
analysis pass applies both waivers and must report nothing here."""

import time
from dataclasses import dataclass

from repro.hpc.executor import Executor


@dataclass(frozen=True)
class StampTask:
    value: float


def run_task(task: StampTask) -> tuple[float, float]:
    # repro-allow: REPRO201 fixture: the stamp is execution metadata
    # repro-allow: REPRO511 fixture: callers drop the stamp before any bits
    return task.value * 2.0, time.time()


def dispatch(executor: Executor, values: list[float]) -> list:
    tasks = [StampTask(value=v) for v in values]
    return executor.map(run_task, tasks)
