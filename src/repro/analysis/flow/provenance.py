"""Generator provenance: where ``numpy.random.Generator`` values may flow.

The determinism story of this codebase depends on every generator being a
*transient* derived from a registered :class:`SeedSequenceBank` stream: it
is created, consumed within one window/shard/task, and dropped.  The PR 1
bug was exactly a generator that outlived its window — an ancillary stream
cached once and reused, silently correlating every window's draws.  The
per-file rules can only catch that shape when the construction is visible in
the same file; this pass follows generator values through assignments,
returns, parameters, and call arguments **across modules** and flags the
three escape hatches that turn a transient stream into long-lived state:

* ``REPRO501`` — a generator bound to a *module global* (directly, or via a
  helper defined in another file whose return value the per-file rules
  cannot type);
* ``REPRO502`` — a generator stored on *service/supervisor state* (an
  object that lives across calibration windows by design);
* ``REPRO503`` — a generator crossing an *executor payload* boundary (a
  payload field typed ``Generator``, a generator argument in a dispatched
  task expression, or a dispatch target with a generator parameter) —
  pickled generator state silently forks streams across workers.

Inference is a fixpoint over the call graph: a project function counts as
generator-returning when its return annotation says so, when it returns a
known construction (:data:`~repro.analysis.flow.callgraph.GENERATOR_SOURCE_CALLS`,
bank methods), or when it returns the result of another generator-returning
function.  That last clause is what makes the PR 1 fixture catchable across
two files.
"""

from __future__ import annotations

import ast

from pathlib import Path

from ..rules import Violation, violation_at
from .callgraph import (DispatchSite, FunctionInfo, FunctionScanner,
                        ProjectIndex, GENERATOR_TYPE_NAMES)

__all__ = ["infer_generator_returning", "check_provenance"]

#: Path components marking modules whose objects live across windows.
_LONG_LIVED_PARTS = ("service",)


def infer_generator_returning(index: ProjectIndex) -> frozenset[str]:
    """Qualnames of project functions that (may) return a generator."""
    current: set[str] = set()
    # Seed: explicit return annotations.
    for qual, info in index.functions.items():
        module = index.modules[info.module]
        returns = info.node.returns
        if returns is not None and \
                index.is_generator_annotation(module, returns):
            current.add(qual)
        elif returns is not None:
            canon = index.canonical(module, returns)
            if canon is not None and canon in GENERATOR_TYPE_NAMES:
                current.add(qual)
    # Fixpoint: returning the result of a generator-returning callee.
    while True:
        frozen = frozenset(current)
        added = False
        for qual, info in index.functions.items():
            if qual in current:
                continue
            module = index.modules[info.module]
            scanner = FunctionScanner(index, module, info,
                                      generator_returning=frozen).scan()
            if scanner.returns_generator:
                current.add(qual)
                added = True
        if not added:
            return frozenset(current)


class _ModuleScopeScanner(FunctionScanner):
    """Generator valuation at module scope (no enclosing function).

    Reuses the function scanner's expression valuation over a synthetic
    zero-argument function wrapping the module's own statements, so
    module-level ``_RNG = helper(...)`` assignments are typed by the same
    rules.  Top-level function and class bodies are left out: their
    locals are not module globals, and scanning them again per module was
    most of the pass's cost.
    """

    def __init__(self, index: ProjectIndex, module_name: str,
                 generator_returning: frozenset[str]) -> None:
        module = index.modules[module_name]
        wrapper = ast.parse("def _module_scope_(): pass").body[0]
        assert isinstance(wrapper, ast.FunctionDef)
        wrapper.body = [stmt for stmt in module.tree.body
                        if not isinstance(stmt, (ast.FunctionDef,
                                                 ast.AsyncFunctionDef,
                                                 ast.ClassDef))]
        info = FunctionInfo(qualname=f"{module_name}.<module>",
                            module=module_name, path=module.path, line=1,
                            node=wrapper)
        super().__init__(index, module, info, generator_returning)


def check_provenance(index: ProjectIndex,
                     generator_returning: frozenset[str],
                     dispatch_sites: list[DispatchSite]) -> list[Violation]:
    """Run the three escape checks over the whole project."""
    violations: list[Violation] = []
    _check_module_globals(index, generator_returning, violations)
    _check_service_state(index, generator_returning, violations)
    _check_payload_escapes(index, generator_returning, dispatch_sites,
                           violations)
    return violations


# --------------------------------------------------------------------------- #
# REPRO501: module globals
# --------------------------------------------------------------------------- #
def _check_module_globals(index: ProjectIndex,
                          generator_returning: frozenset[str],
                          violations: list[Violation]) -> None:
    for name, module in index.modules.items():
        scanner = _ModuleScopeScanner(index, name, generator_returning)
        scanner.scan()
        for stmt in module.tree.body:
            value: ast.expr | None = None
            target_name: str | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                    isinstance(stmt.targets[0], ast.Name):
                value, target_name = stmt.value, stmt.targets[0].id
            elif isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                target_name = stmt.target.id
                if index.is_generator_annotation(module, stmt.annotation):
                    violations.append(violation_at(
                        module.path, stmt, "REPRO501",
                        f"module global {target_name!r} is annotated as a "
                        "numpy.random.Generator — a module-held stream "
                        "outlives every window and re-serves the same "
                        "draws (the PR 1 cross-window reuse bug class)"))
                    continue
                value = stmt.value
            if value is None or target_name is None:
                continue
            # Only flag value *expressions*; aliasing a generator-returning
            # function object (``_f = rng_from_jsonable``) is not a stream.
            if isinstance(value, ast.Name):
                continue
            if scanner.expr_is_generator_valued(value):
                violations.append(violation_at(
                    module.path, stmt, "REPRO501",
                    f"module global {target_name!r} is bound to a "
                    "numpy.random.Generator — a module-held stream "
                    "outlives every window and re-serves the same draws "
                    "(the PR 1 cross-window reuse bug class); construct "
                    "the stream where it is consumed, keyed by window"))
        # ``global X; X = <generator>`` inside any function of the module.
        prefix = f"{name}." if name else ""
        for qual, info in index.functions.items():
            if info.module != name:
                continue
            declared_global: set[str] = set()
            for node in ast.walk(info.node):
                if isinstance(node, ast.Global):
                    declared_global.update(node.names)
            if not declared_global:
                continue
            fn_scanner = FunctionScanner(index, module, info,
                                         generator_returning).scan()
            for node in ast.walk(info.node):
                if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Name) and \
                        node.targets[0].id in declared_global and \
                        fn_scanner.expr_is_generator_valued(node.value):
                    violations.append(violation_at(
                        module.path, node, "REPRO501",
                        f"{prefix}{info.node.name} caches a generator in "
                        f"module global {node.targets[0].id!r} — the "
                        "stream outlives its window (PR 1 bug class)"))


# --------------------------------------------------------------------------- #
# REPRO502: long-lived service/supervisor state
# --------------------------------------------------------------------------- #
def _is_long_lived_module(index: ProjectIndex, module_name: str) -> bool:
    module = index.modules[module_name]
    return any(part in _LONG_LIVED_PARTS for part in Path(module.path).parts)


def _check_service_state(index: ProjectIndex,
                         generator_returning: frozenset[str],
                         violations: list[Violation]) -> None:
    for cls in index.classes.values():
        if not _is_long_lived_module(index, cls.module):
            continue
        module = index.modules[cls.module]
        for fname, ftype, fline in cls.fields:
            if ftype in GENERATOR_TYPE_NAMES:
                violations.append(Violation(
                    path=cls.path, line=fline, col=0, rule="REPRO502",
                    message=f"{cls.qualname} declares generator-typed field "
                            f"{fname!r} — service state lives across "
                            "windows, so a stored stream replays the PR 1 "
                            "cross-window reuse bug; store the (window-"
                            "keyed) seed and rebuild the stream per use"))
        for method_name in cls.method_names:
            qual = f"{cls.qualname}.{method_name}"
            info = index.functions.get(qual)
            if info is None:
                continue
            scanner = FunctionScanner(index, module, info,
                                      generator_returning).scan()
            for node in ast.walk(info.node):
                if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Attribute):
                    target = node.targets[0]
                    if isinstance(target.value, ast.Name) and \
                            target.value.id == "self" and \
                            scanner.expr_is_generator_valued(node.value):
                        violations.append(violation_at(
                            cls.path, node, "REPRO502",
                            f"{qual} stores a generator on self."
                            f"{target.attr} — service/supervisor objects "
                            "live across windows, so the cached stream "
                            "re-serves its draws every window (PR 1 bug "
                            "class); derive a fresh window-keyed stream "
                            "at each use instead"))


# --------------------------------------------------------------------------- #
# REPRO503: executor payload escapes
# --------------------------------------------------------------------------- #
def _check_payload_escapes(index: ProjectIndex,
                           generator_returning: frozenset[str],
                           dispatch_sites: list[DispatchSite],
                           violations: list[Violation]) -> None:
    flagged_classes: set[str] = set()
    for site in dispatch_sites:
        info = index.functions.get(site.function)
        module = index.modules[site.module]
        scanner = None
        if info is not None:
            scanner = FunctionScanner(index, module, info,
                                      generator_returning).scan()
        # The dispatched function itself must not expect a generator: it
        # could only ever receive one through the pickled payload.
        if site.target_resolved is not None:
            target = index.functions[site.target_resolved]
            target_module = index.modules[target.module]
            for arg in (target.node.args.posonlyargs + target.node.args.args
                        + target.node.args.kwonlyargs):
                if arg.arg in ("self", "cls"):
                    continue
                if index.is_generator_annotation(target_module,
                                                 arg.annotation):
                    violations.append(violation_at(
                        site.path, site.node, "REPRO503",
                        f"dispatch target {site.target_resolved} takes "
                        f"generator parameter {arg.arg!r} — generator "
                        "state crossing the executor boundary is pickled "
                        "and silently forks the stream per worker; ship "
                        "the seed slice and rebuild the stream worker-"
                        "side (see hpc.sharding.run_shard)"))
        for payload in site.payload_exprs:
            for node in ast.walk(payload):
                hit = False
                if isinstance(node, ast.Name) and scanner is not None and \
                        node.id in scanner.generator_locals:
                    hit = True
                elif isinstance(node, ast.Call) and scanner is not None and \
                        scanner.call_is_generator_valued(node):
                    hit = True
                if hit:
                    violations.append(violation_at(
                        site.path, node, "REPRO503",
                        "generator value embedded in an executor payload "
                        "— pickled generator state forks the stream "
                        "across workers and breaks the (base_seed, shard "
                        "layout) contract; ship seeds, not streams"))
            # Payload task dataclasses must not declare generator fields.
            if isinstance(payload, ast.Call) and scanner is not None:
                canon = index.canonical(module, payload.func,
                                        scanner.local_types,
                                        scanner.info.node)
                if canon is not None and canon in index.classes and \
                        canon not in flagged_classes:
                    cls = index.classes[canon]
                    for fname, ftype, fline in cls.fields:
                        if ftype in GENERATOR_TYPE_NAMES:
                            flagged_classes.add(canon)
                            violations.append(Violation(
                                path=cls.path, line=fline, col=0,
                                rule="REPRO503",
                                message=f"payload dataclass {cls.qualname} "
                                        f"declares generator-typed field "
                                        f"{fname!r} — generators must not "
                                        "ride executor payloads; carry the "
                                        "seed slice instead"))
