"""Contract-aware static analysis for the calibration codebase.

The reproducibility guarantees this repo ships — bit-identical runs per
``(base_seed, shard layout)``, executor-independent results, documented seed
domains for every random draw — are *conventions*, and two of them have
already been broken by ordinary-looking patches (PR 1's cross-window
ancillary stream reuse, and the aliasing of the restart-seed and draw-seed
stream tags).  This package turns those conventions into machine-checked
rules over the AST, run locally and in CI::

    python -m repro.analysis.lint src/

Rule families
-------------
* ``REPRO1xx`` — **RNG confinement**: generators, seed sequences, and
  serialised RNG state are constructed only in :mod:`repro.seir.seeding`;
  every stream tag fed to ``mix_seed``/``ancillary_generator`` is a named
  constant registered in the :data:`~repro.seir.seeding.STREAM_DOMAINS`
  registry, and no two registrations share a tag.
* ``REPRO2xx`` — **determinism hazards**: wall-clock reads and unordered
  ``set`` iteration feeding arrays inside the deterministic subsystems
  (``core/``, ``seir/``, ``hpc/``).
* ``REPRO3xx`` — **executor payload hygiene**: work dispatched through the
  :class:`~repro.hpc.executor.Executor` protocol is a module-level function
  over declared dataclasses — never a closure, lambda, or bare
  tuple/dict payload.
* ``REPRO4xx`` — **typed core**: the modules mypy gates in CI (``core/``,
  ``hpc/``, ``seir/seeding.py``) carry complete signature annotations, so
  the typed surface cannot silently erode between mypy runs.
* ``REPRO5xx`` — **interprocedural determinism** (the whole-project
  ``python -m repro.analysis.flow src/`` pass): generator provenance
  (``REPRO50x`` — no ``numpy.random.Generator`` escapes into module
  globals, long-lived service state, or executor payloads, even through
  helpers in other files) and payload purity proofs (``REPRO51x`` — every
  dispatched closure transitively avoids wall-clock, ambient RNG,
  mutable-global writes, and undeclared filesystem access), with a
  machine-readable purity certificate per dispatch site.

The rules are implemented on :mod:`ast` alone (no third-party
dependencies), so the analyses run anywhere the code itself runs.  Both
CLIs share ``--format sarif`` (GitHub-annotation upload) and the scoped
``# repro-allow: RULE reason`` waiver syntax.
"""

from typing import Any

from .rules import Violation

__all__ = ["Violation", "main", "run_flow", "run_lint"]


def __getattr__(name: str) -> Any:
    # Lazy so `python -m repro.analysis.lint` doesn't import the submodule
    # twice (once via the package, once as __main__).
    if name in ("main", "run_lint"):
        from . import lint
        return getattr(lint, name)
    if name == "run_flow":
        from .flow import run_flow
        return run_flow
    raise AttributeError(name)
