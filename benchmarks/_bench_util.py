"""Helpers shared by the benchmark modules (kept out of conftest so the
import name never collides with the test suite's conftest)."""

from __future__ import annotations

import json
import time
from pathlib import Path


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def time_best(fn, repeats: int):
    """Best-of-``repeats`` wall time; returns ``(seconds, last_result)``."""
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def time_best_alternating(fns, repeats: int) -> list:
    """Best-of-``repeats`` wall time of each of ``fns``, timed in turn
    (ABAB...) so host drift lands on every side alike; returns one
    ``(seconds, last_result)`` per function."""
    best = [float("inf")] * len(fns)
    out = [None] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            out[i] = fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return list(zip(best, out))


def write_payload(payload: dict, output: Path) -> None:
    """Write a benchmark JSON payload, creating parent directories."""
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2) + "\n")
