"""Payload purity proofs for executor dispatch targets.

The contract behind ``docs/contracts.md`` — "shard outputs are pure
functions of (base_seed, shard layout)" — was, until this pass, prose.
Here it becomes a checked property: for every ``executor.map / map_each /
submit`` site, the dispatched function and everything it can reach through
resolvable project calls must avoid the four effect classes that would make
a worker's output depend on *where or when* it ran:

* ``REPRO511`` — wall-clock reads (``time.time``, ``perf_counter``,
  ``datetime.now``, ...): retried shards would see different values;
* ``REPRO512`` — ambient RNG (stdlib ``random``, the legacy
  ``numpy.random`` global-state API, zero-argument ``default_rng()``):
  draws that are not derived from the shipped seed slice;
* ``REPRO513`` — mutable module-global writes (``global`` rebinding,
  augmented assignment to a module-level name): cross-task state that
  exists on one worker but not another;
* ``REPRO514`` — filesystem access outside the declared store modules:
  hidden inputs/outputs that break kill-and-resume identity.

Each site gets a machine-readable :class:`PurityCertificate` recording the
transitive closure that was proved, every effect found, and — crucially —
every call the analysis could *not* resolve (dynamic constructors, untyped
receivers).  A "pure" verdict is therefore always explicit about its
soundness boundary instead of silently overclaiming.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass
from pathlib import Path

from ..rules import Violation, _WALL_CLOCK
from .callgraph import (DispatchSite, FunctionScanner, ProjectIndex,
                        GENERATOR_METHOD_NAMES, GENERATOR_SOURCE_CALLS)

__all__ = ["Effect", "PurityCertificate", "UnresolvedCall", "check_purity"]

#: Names the interpreter provides without any import.
_BUILTIN_NAMES = frozenset(dir(builtins))

#: Legacy ``numpy.random`` global-state API — draws from the hidden global
#: ``RandomState`` rather than a seeded generator.
_LEGACY_NUMPY_RANDOM = frozenset({
    "numpy.random.seed", "numpy.random.rand", "numpy.random.randn",
    "numpy.random.randint", "numpy.random.random", "numpy.random.sample",
    "numpy.random.choice", "numpy.random.shuffle",
    "numpy.random.permutation", "numpy.random.normal",
    "numpy.random.uniform", "numpy.random.binomial", "numpy.random.poisson",
    "numpy.random.exponential", "numpy.random.gamma", "numpy.random.beta",
})

#: Canonical callables that touch the filesystem.
_FS_CALLS = frozenset({
    "open", "os.remove", "os.unlink", "os.rename", "os.replace",
    "os.mkdir", "os.makedirs", "os.rmdir", "os.removedirs", "os.listdir",
    "os.scandir", "shutil.rmtree", "shutil.copy", "shutil.copy2",
    "shutil.copyfile", "shutil.move", "shutil.copytree",
    "tempfile.mkdtemp", "tempfile.mkstemp", "tempfile.NamedTemporaryFile",
    "tempfile.TemporaryDirectory", "numpy.save", "numpy.savez",
    "numpy.savez_compressed", "numpy.load", "numpy.savetxt",
    "numpy.loadtxt", "json.dump", "json.load",
})

#: ``pathlib.Path`` methods that touch the filesystem.  Attribute-name
#: based (receivers are rarely typed); the names are specific enough that
#: collisions with non-path objects have not been observed in this tree.
_FS_METHODS = frozenset({
    "write_text", "write_bytes", "read_text", "read_bytes", "mkdir",
    "unlink", "touch", "rmdir", "glob", "rglob", "iterdir",
})

#: Modules that *are* the declared stores — filesystem access inside them
#: is their entire purpose, and dispatch closures that reach them do so
#: through the store API rather than ad-hoc paths.
_DECLARED_STORE_SUFFIXES = (
    ("service", "artifacts.py"),
    ("hpc", "checkpoint_io.py"),
)

#: The sanctioned RNG construction site: everything inside it is the seed
#: bank, whose whole job is turning shipped seeds into streams.
_SANCTIONED_RNG_SUFFIX = ("seir", "seeding.py")

_RULE_FOR_EFFECT = {
    "wall_clock": "REPRO511",
    "ambient_rng": "REPRO512",
    "global_write": "REPRO513",
    "filesystem": "REPRO514",
}


@dataclass(frozen=True)
class Effect:
    """One impure operation found inside a dispatch closure."""

    kind: str       # key of _RULE_FOR_EFFECT
    function: str   # qualname containing the operation
    path: str
    line: int
    col: int
    detail: str

    def to_jsonable(self) -> dict[str, object]:
        return {"kind": self.kind, "rule": _RULE_FOR_EFFECT[self.kind],
                "function": self.function, "path": self.path,
                "line": self.line, "detail": self.detail}


@dataclass(frozen=True)
class UnresolvedCall:
    """One call the closure walk could not follow — soundness boundary."""

    function: str
    path: str
    line: int
    display: str

    def to_jsonable(self) -> dict[str, object]:
        return {"function": self.function, "path": self.path,
                "line": self.line, "call": self.display}


@dataclass(frozen=True)
class PurityCertificate:
    """Machine-readable purity verdict for one dispatch site."""

    site_path: str
    site_line: int
    dispatch_method: str
    caller: str
    target: str  # resolved qualname, or "<unresolved>" when dynamic
    closure: tuple[str, ...]
    effects: tuple[Effect, ...]
    unresolved: tuple[UnresolvedCall, ...]

    @property
    def pure(self) -> bool:
        return not self.effects

    def to_jsonable(self) -> dict[str, object]:
        return {
            "site": {"path": self.site_path, "line": self.site_line,
                     "method": self.dispatch_method, "caller": self.caller},
            "target": self.target,
            "closure": list(self.closure),
            "pure": self.pure,
            "effects": [e.to_jsonable() for e in self.effects],
            "unresolved_calls": [u.to_jsonable() for u in self.unresolved],
        }


def _path_endswith(path: str, suffix: tuple[str, ...]) -> bool:
    parts = Path(path).parts
    return len(parts) >= len(suffix) and \
        tuple(parts[-len(suffix):]) == suffix


def _is_declared_store(path: str) -> bool:
    return any(_path_endswith(path, s) for s in _DECLARED_STORE_SUFFIXES)


def _root_name(expr: ast.expr) -> str | None:
    """The leftmost ``Name`` a call target hangs off, if any."""
    while isinstance(expr, ast.Attribute):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else None


def _call_display(call: ast.Call) -> str:
    try:
        return ast.unparse(call.func)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return "<expr>"


class _FunctionEffects:
    """Effect and edge extraction for one project function."""

    def __init__(self, index: ProjectIndex, qual: str) -> None:
        self.index = index
        self.info = index.functions[qual]
        self.module = index.modules[self.info.module]
        self.scanner = FunctionScanner(index, self.module, self.info).scan()
        self.effects: list[Effect] = []
        self.callees: set[str] = set()
        self.unresolved: list[UnresolvedCall] = []
        self._sanctioned_rng = _path_endswith(self.info.path,
                                              _SANCTIONED_RNG_SUFFIX)
        self._declared_store = _is_declared_store(self.info.path)
        self._local_names = self._collect_local_names()
        self._collect_calls()
        self._collect_global_writes()

    def _collect_local_names(self) -> frozenset[str]:
        """Parameters plus every name this function binds."""
        node = self.info.node
        names = {a.arg for a in (node.args.posonlyargs + node.args.args
                                 + node.args.kwonlyargs)}
        for vararg in (node.args.vararg, node.args.kwarg):
            if vararg is not None:
                names.add(vararg.arg)
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Assign, ast.For)):
                targets = sub.targets if isinstance(sub, ast.Assign) \
                    else [sub.target]
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            names.add(leaf.id)
            elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)) and \
                    isinstance(sub.target, ast.Name):
                names.add(sub.target.id)
            elif isinstance(sub, ast.comprehension):
                for leaf in ast.walk(sub.target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
            elif isinstance(sub, ast.withitem) and sub.optional_vars \
                    is not None:
                for leaf in ast.walk(sub.optional_vars):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
        return frozenset(names)

    # ------------------------------------------------------------------ #
    def _effect(self, kind: str, node: ast.AST, detail: str) -> None:
        self.effects.append(Effect(
            kind=kind, function=self.info.qualname, path=self.info.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0), detail=detail))

    def _collect_calls(self) -> None:
        for record in self.scanner.calls:
            call, canon = record.node, record.canonical
            if record.resolved is not None:
                self.callees.add(record.resolved)
                continue
            if canon is not None:
                if canon in _WALL_CLOCK:
                    self._effect("wall_clock", call, f"{canon}()")
                    continue
                if not self._sanctioned_rng and self._is_ambient_rng(
                        canon, call):
                    self._effect("ambient_rng", call, f"{canon}()")
                    continue
                if not self._declared_store and (
                        canon in _FS_CALLS
                        or (isinstance(call.func, ast.Attribute)
                            and record.terminal_attr in _FS_METHODS)):
                    self._effect("filesystem", call,
                                 _call_display(call) + "()")
                    continue
            if self._is_resolvable_surface(record.node, canon):
                continue
            self.unresolved.append(UnresolvedCall(
                function=self.info.qualname, path=self.info.path,
                line=call.lineno, display=_call_display(call)))

    def _is_ambient_rng(self, canon: str, call: ast.Call) -> bool:
        if canon.startswith("random."):
            return True
        if canon in _LEGACY_NUMPY_RANDOM:
            return True
        # Zero-argument default_rng seeds from OS entropy — every worker
        # gets a different stream no matter what the payload carried.
        return canon == "numpy.random.default_rng" and not call.args \
            and not call.keywords

    def _is_resolvable_surface(self, call: ast.Call,
                               canon: str | None) -> bool:
        """True when a non-project call is a known, effect-free surface.

        Anything rooted in an import alias, a module-level name, or a
        builtin is *named* — its effects were already matched against the
        tables above, so what remains is treated as pure library surface
        (numpy math, dataclass helpers).  A one-level method call on a
        local (``results.append``, ``rng.poisson``) is covered by checking
        the local's *construction site* instead.  What stays unresolved —
        the genuine blind spot, surfaced in certificates — is calling a
        local value as a function (``engine_cls(...)``, a ``fn`` parameter)
        and method calls through chained attributes (``self._engine.step``),
        where the receiver's class was chosen at runtime.
        """
        if canon is not None and canon in GENERATOR_SOURCE_CALLS:
            return True
        terminal = call.func.attr if isinstance(call.func, ast.Attribute) \
            else None
        if terminal in GENERATOR_METHOD_NAMES:
            return True  # the seed-bank surface: seeded by construction
        if isinstance(call.func, ast.Name):
            name = call.func.id
            return (name in _BUILTIN_NAMES or name in self.module.aliases
                    or name in self.module.toplevel)
        root = _root_name(call.func)
        if root is None:
            return False
        if root in self.module.aliases or root in self.module.toplevel:
            return True
        if isinstance(call.func, ast.Attribute) and \
                isinstance(call.func.value, ast.Name):
            return root in self._local_names or \
                root in self.scanner.local_types
        return False

    def _collect_global_writes(self) -> None:
        declared: set[str] = set()
        for node in ast.walk(self.info.node):
            if isinstance(node, ast.Global):
                declared.update(node.names)
        for node in ast.walk(self.info.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id in declared:
                        self._effect("global_write", node,
                                     f"global {target.id} rebound")
            elif isinstance(node, ast.AugAssign) and \
                    isinstance(node.target, ast.Name):
                name = node.target.id
                if name in declared or (
                        name in self.module.toplevel
                        and name not in self.scanner.local_types
                        and name not in self.scanner.generator_locals
                        and not self._is_local_name(name)):
                    self._effect("global_write", node,
                                 f"augmented assignment to module "
                                 f"global {name}")

    def _is_local_name(self, name: str) -> bool:
        """Plain-assigned somewhere in this function (shadows the global)."""
        for node in ast.walk(self.info.node):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == name
                    for t in node.targets):
                return True
            if isinstance(node, (ast.For, ast.comprehension)):
                target = node.target
                if isinstance(target, ast.Name) and target.id == name:
                    return True
        return False


def _closure_for(index: ProjectIndex, start: str,
                 cache: dict[str, _FunctionEffects]
                 ) -> tuple[list[str], list[Effect], list[UnresolvedCall]]:
    """BFS over resolvable project calls from ``start``."""
    seen: set[str] = set()
    order: list[str] = []
    queue = [start]
    effects: list[Effect] = []
    unresolved: list[UnresolvedCall] = []
    while queue:
        qual = queue.pop(0)
        if qual in seen or qual not in index.functions:
            continue
        seen.add(qual)
        order.append(qual)
        if qual not in cache:
            cache[qual] = _FunctionEffects(index, qual)
        fx = cache[qual]
        effects.extend(fx.effects)
        unresolved.extend(fx.unresolved)
        queue.extend(sorted(fx.callees - seen))
    return order, effects, unresolved


def check_purity(index: ProjectIndex, dispatch_sites: list[DispatchSite]
                 ) -> tuple[list[Violation], list[PurityCertificate]]:
    """Prove (or refute) purity of every dispatch target's closure."""
    violations: list[Violation] = []
    certificates: list[PurityCertificate] = []
    cache: dict[str, _FunctionEffects] = {}
    flagged: set[tuple[str, str, int, str]] = set()
    for site in dispatch_sites:
        method = site.node.func.attr \
            if isinstance(site.node.func, ast.Attribute) else "?"
        if site.target_resolved is None:
            certificates.append(PurityCertificate(
                site_path=site.path, site_line=site.node.lineno,
                dispatch_method=method, caller=site.function,
                target="<unresolved>", closure=(), effects=(),
                unresolved=(UnresolvedCall(
                    function=site.function, path=site.path,
                    line=site.node.lineno,
                    display=_call_display(site.node)),)))
            continue
        closure, effects, unresolved = _closure_for(
            index, site.target_resolved, cache)
        certificates.append(PurityCertificate(
            site_path=site.path, site_line=site.node.lineno,
            dispatch_method=method, caller=site.function,
            target=site.target_resolved, closure=tuple(closure),
            effects=tuple(effects), unresolved=tuple(unresolved)))
        for fx in effects:
            rule = _RULE_FOR_EFFECT[fx.kind]
            key = (rule, fx.path, fx.line, fx.detail)
            if key in flagged:
                continue  # same effect reached from a second site
            flagged.add(key)
            violations.append(Violation(
                path=fx.path, line=fx.line, col=fx.col, rule=rule,
                message=f"{fx.detail} inside {fx.function}, which is "
                        f"dispatched (via {site.target_resolved}) at "
                        f"{site.path}:{site.node.lineno} — executor "
                        "payload closures must be pure functions of their "
                        "task dataclass, or retried/resumed shards diverge "
                        "from the original bits"))
    return violations, certificates
