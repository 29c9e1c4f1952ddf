"""Whole-project determinism checks of ``python -m repro.analysis``.

The per-file rules (:mod:`repro.analysis.rules`) see one module at a time;
this package holds the one family that needs the whole-project view,
built once per pass by :func:`.callgraph.build_index`: **generator
provenance** (REPRO50x) — no ``numpy.random.Generator`` escapes into
module globals, long-lived service state, or executor payloads, even when
the construction is hidden behind helpers defined in other modules
(:mod:`.provenance`).

The index also finds the executor dispatch sites
(:func:`.callgraph.find_dispatch_sites`) that the payload-hygiene rules
(REPRO3xx) and the payload-escape rule (REPRO503) read.  What a dispatched
shard may do is not proved here: its whole closure lives in
:mod:`repro.seir` and :mod:`repro.hpc`, whose modules are checked one by
one (REPRO101/201 and ``tests/test_layering.py``).
"""

from .callgraph import ProjectIndex, build_index, find_dispatch_sites
from .provenance import check_provenance, infer_generator_returning

__all__ = ["ProjectIndex", "build_index", "check_provenance",
           "find_dispatch_sites", "infer_generator_returning"]
