"""Contract-aware static analysis for the calibration codebase.

The reproducibility guarantees this repo ships — bit-identical runs per
``(base_seed, shard layout)``, executor-independent results, documented seed
domains for every random draw — are *conventions*, and two of them have
already been broken by ordinary-looking patches (PR 1's cross-window
ancillary stream reuse, and the aliasing of the restart-seed and draw-seed
stream tags).  This package turns those conventions into machine-checked
rules over the AST, checked in one pass locally and in CI::

    python -m repro.analysis src/

Rule families
-------------
* ``REPRO1xx`` — **RNG confinement**: generators, seed sequences, and
  serialised RNG state are constructed only in :mod:`repro.seir.seeding`,
  and every stream tag fed to ``mix_seed``/``ancillary_generator`` is a
  constant of that module's tables
  (:data:`~repro.seir.seeding.STREAM_TAGS`,
  :data:`~repro.seir.seeding.ANCILLARY_PURPOSES`), whose import-time check
  rejects a duplicate tag.
* ``REPRO2xx`` — **determinism hazards**: wall-clock reads and unordered
  ``set`` iteration feeding arrays inside the deterministic subsystems
  (``core/``, ``seir/``, ``hpc/``, ``service/``, ``inference/``).
* ``REPRO3xx`` — **executor payload hygiene**: work dispatched through the
  :class:`~repro.hpc.executor.Executor` protocol is a module-level function
  over declared dataclasses — never a closure, lambda, or bare
  tuple/dict payload.
* ``REPRO5xx`` — **generator provenance** (:mod:`.flow`, over the
  whole-project index): no ``numpy.random.Generator`` escapes into module
  globals, long-lived service state, or executor payloads, even through
  helpers in other files.

Signature annotations of the typed core are mypy's job (CI's ``lint``
job, configured in ``pyproject.toml``).  The one executor dispatch target,
``repro.hpc.sharding.run_shard``, runs only code of :mod:`repro.seir` and
:mod:`repro.hpc`; ``tests/test_layering.py`` keeps those modules free of
module-global writes and of file access outside the checkpoint store, and
the REPRO101/201 rules above keep ambient RNG and clock reads out.

The rules are implemented on :mod:`ast` alone (no third-party
dependencies), so the analysis runs anywhere the code itself runs.  Each
file is parsed once and every family runs over the one project index
(:func:`run`); ``--format sarif`` feeds GitHub annotations, and one
scoped ``# repro-allow: RULE reason`` waiver pass covers every family.
"""

from .cli import main, run
from .rules import Violation

__all__ = ["Violation", "main", "run"]
