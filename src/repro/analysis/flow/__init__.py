"""Whole-project determinism checks of ``python -m repro.analysis``.

The per-file rules (:mod:`repro.analysis.rules`) see one module at a time;
this package holds the checks that need the whole-project view, built once
per pass by :func:`.callgraph.build_index`:

* **generator provenance** (REPRO50x) — no ``numpy.random.Generator``
  escapes into module globals, long-lived service state, or executor
  payloads, even when the construction is hidden behind helpers defined
  in other modules (:mod:`.provenance`);
* **payload purity** (REPRO51x) — every function dispatched through the
  ``Executor`` protocol is, transitively, a pure function of its task
  dataclass: no wall-clock, no ambient RNG, no mutable-global writes, no
  filesystem access outside the declared stores (:mod:`.purity`), with a
  machine-readable certificate per dispatch site.

The index also finds the executor dispatch sites
(:func:`.callgraph.find_dispatch_sites`) that the payload-hygiene rules
(REPRO3xx), provenance and purity all read.
"""

from .callgraph import ProjectIndex, build_index, find_dispatch_sites
from .provenance import check_provenance, infer_generator_returning
from .purity import PurityCertificate, check_purity

__all__ = ["ProjectIndex", "PurityCertificate", "build_index",
           "check_provenance", "check_purity", "find_dispatch_sites",
           "infer_generator_returning"]
