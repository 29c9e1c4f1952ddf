"""Fixture: one effect per helper, in a lower-layer (``seir/``) module.

A shard's output must not depend on where or when it ran, so the modules
it runs hold none of these: a wall-clock read (REPRO201), an ambient RNG
draw (REPRO101), a module-global write and file access outside the
checkpoint store (the last two are ``tests/test_layering.py`` checks).
"""

import time

import numpy as np

_CALLS = 0


def stamp():
    return time.time()  # retried shards see different values


def draw_legacy():
    return float(np.random.rand())  # hidden global RandomState


def bump_counter():
    global _CALLS
    _CALLS += 1  # per-worker state the task never carried


def spill(value):
    with open("/tmp/spill.txt", "w") as fh:  # a store nobody declared
        fh.write(str(value))
