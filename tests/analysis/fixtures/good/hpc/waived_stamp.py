"""Fixture: one line excused for two rule families — the per-file
wall-clock rule (REPRO201; ``hpc/`` is a deterministic subsystem) and the
whole-project generator-provenance rule (REPRO501: a module-held stream).
One analysis pass applies both waivers and must report nothing here."""

import time

from repro.seir.seeding import generator_for

# repro-allow: REPRO201 fixture: the seed is a launch stamp
# repro-allow: REPRO501 fixture: one stream for the whole process
STAMPED = generator_for(int(time.time()))
