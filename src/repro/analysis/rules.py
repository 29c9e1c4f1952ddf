"""Per-file rules, the rule catalogue, and ``# repro-allow`` waivers.

Every rule encodes an invariant this codebase has already relied on (and in
two documented cases, already broken).  Rules are deliberately conservative:
they flag the *shapes* of past bugs — rogue RNG construction, integer
stream tags, closures shipped to executors — rather than attempting general
dataflow analysis, so a clean run stays meaningful and a failure is always
actionable.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .registry import StaticRegistry, is_register_call, terminal_name

if TYPE_CHECKING:
    from .flow.callgraph import DispatchSite, ModuleInfo, ProjectIndex

__all__ = ["FileContext", "Violation", "RULES", "check_file",
           "dispatch_violations", "registry_violations", "violation_at",
           "AllowDirective", "parse_allow_directives",
           "apply_allow_directives"]

#: rule id -> one-line description (surfaced by ``--list-rules``).
RULES: dict[str, str] = {
    "REPRO101": "RNG construction (numpy.random.*, stdlib random) outside "
                "seir/seeding.py",
    "REPRO102": "stream tag fed to mix_seed/ancillary_generator is not a "
                "registered named constant",
    "REPRO103": "stream-tag constant assigned without registering it in "
                "STREAM_DOMAINS",
    "REPRO104": "two stream registrations claim the same (domain, tag)",
    "REPRO201": "wall-clock read (time.time, datetime.now, ...) in a "
                "deterministic subsystem",
    "REPRO202": "unordered set iteration feeding arrays/sequences in a "
                "deterministic subsystem",
    "REPRO203": "invalid, reason-less, or unused '# repro-allow' directive",
    "REPRO301": "lambda or nested function dispatched through an Executor",
    "REPRO302": "raw tuple/dict executor payload instead of a declared "
                "dataclass task",
    "REPRO401": "incomplete signature annotations in a typed-core module",
    "REPRO501": "numpy.random.Generator cached in a module global "
                "(directly or via a helper's return value)",
    "REPRO502": "numpy.random.Generator stored on long-lived service/"
                "supervisor state",
    "REPRO503": "numpy.random.Generator crossing an Executor payload "
                "boundary",
    "REPRO511": "wall-clock read reachable from an Executor dispatch "
                "target",
    "REPRO512": "ambient RNG (stdlib random, legacy numpy.random, "
                "unseeded default_rng) reachable from a dispatch target",
    "REPRO513": "mutable module-global write reachable from a dispatch "
                "target",
    "REPRO514": "filesystem access outside declared stores reachable from "
                "a dispatch target",
}

#: Constant-name shapes that denote stream tags (REPRO103).
_STREAM_CONST_RE = re.compile(r"^_[A-Z0-9_]*_STREAM$|^_PURPOSE_[A-Z0-9_]+$")

#: Wall-clock callables rejected in deterministic subsystems (REPRO201).
_WALL_CLOCK = {
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: Array/sequence builders whose input order becomes data (REPRO202).
_ORDER_SENSITIVE_NUMPY = {
    "numpy.array", "numpy.asarray", "numpy.asanyarray", "numpy.fromiter",
    "numpy.stack", "numpy.concatenate",
}
_ORDER_SENSITIVE_BUILTINS = {"list", "tuple", "enumerate"}


@dataclass(frozen=True)
class FileContext:
    """Which rule families apply to one file."""

    path: str
    rng_allowed: bool = False     # the one sanctioned RNG construction site
    deterministic: bool = False   # core/, seir/, hpc/
    typed: bool = False           # core/, hpc/, seir/seeding.py


@dataclass(frozen=True)
class Violation:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def violation_at(path: str, node: ast.AST, rule: str,
                 message: str) -> Violation:
    """A violation located at ``node``'s line and column."""
    return Violation(path=path, line=getattr(node, "lineno", 0),
                     col=getattr(node, "col_offset", 0), rule=rule,
                     message=message)


def _is_unordered(node: ast.expr) -> bool:
    """Set displays, set comprehensions, and bare set()/frozenset() calls."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class _FileChecker(ast.NodeVisitor):
    """Single-file rule pass (REPRO101/102/103, 2xx, 4xx)."""

    def __init__(self, context: FileContext, registered: set[str],
                 module: ModuleInfo) -> None:
        self.ctx = context
        self.registered = registered
        self.module = module
        self.aliases = module.aliases
        self.violations: list[Violation] = []
        self._function_depth = 0
        self._class_depth = 0

    # ------------------------------------------------------------------ #
    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.violations.append(violation_at(self.ctx.path, node, rule,
                                            message))

    def _canonical(self, node: ast.expr) -> str | None:
        """Resolve ``np.random.default_rng`` through import aliases."""
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            base = self._canonical(node.value)
            return None if base is None else f"{base}.{node.attr}"
        return None

    # ------------------------------------------------------------------ #
    # Imports: reject stdlib random outright.
    # ------------------------------------------------------------------ #
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name.split(".")[0] == "random" and \
                    not self.ctx.rng_allowed:
                self._flag(node, "REPRO101",
                           "stdlib 'random' imported outside seir/seeding.py "
                           "— all randomness must flow through the seed bank")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        root = module.split(".")[0]
        if root == "random" and not self.ctx.rng_allowed:
            self._flag(node, "REPRO101",
                       "stdlib 'random' imported outside seir/seeding.py — "
                       "all randomness must flow through the seed bank")
        if module.startswith("numpy.random") and not self.ctx.rng_allowed:
            self._flag(node, "REPRO101",
                       "numpy.random imported directly outside "
                       "seir/seeding.py — obtain generators from the seed "
                       "bank (repro.seir.seeding) instead")
        self.generic_visit(node)

    # ------------------------------------------------------------------ #
    # Assignments: stream constants must be registered (REPRO103).
    # ------------------------------------------------------------------ #
    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if _STREAM_CONST_RE.match(name):
                if not is_register_call(node.value):
                    self._flag(
                        node, "REPRO103",
                        f"stream constant {name} is assigned without "
                        "registration — use register_stream_tag()/"
                        "register_ancillary_purpose() so tag uniqueness is "
                        "enforced at import time")
        self.generic_visit(node)

    # ------------------------------------------------------------------ #
    # Function scopes: annotation completeness.
    # ------------------------------------------------------------------ #
    def _check_annotations(self, node: ast.FunctionDef | ast.AsyncFunctionDef
                           ) -> None:
        if node.name.startswith("test_"):
            return
        missing: list[str] = []
        args = node.args
        positional = list(args.posonlyargs) + list(args.args)
        skip_first = (self._class_depth > 0 and not self._function_depth
                      and positional
                      and positional[0].arg in ("self", "cls")
                      and not any(isinstance(d, ast.Name)
                                  and d.id == "staticmethod"
                                  for d in node.decorator_list))
        if skip_first:
            positional = positional[1:]
        for arg in positional + list(args.kwonlyargs):
            if arg.annotation is None:
                missing.append(arg.arg)
        for vararg, prefix in ((args.vararg, "*"), (args.kwarg, "**")):
            if vararg is not None and vararg.annotation is None:
                missing.append(prefix + vararg.arg)
        if node.returns is None:
            missing.append("return")
        if missing:
            self._flag(node, "REPRO401",
                       f"def {node.name}(...) is missing annotations for: "
                       f"{', '.join(missing)} (module is mypy-gated)")

    def _enter_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef
                        ) -> None:
        if self.ctx.typed:
            self._check_annotations(node)
        class_depth, aliases = self._class_depth, self.aliases
        self._class_depth = 0  # classes inside functions start fresh
        if not self._function_depth:  # an outermost def: its own imports
            self.aliases = self.module.aliases_in(node)
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1
        self._class_depth, self.aliases = class_depth, aliases

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_depth += 1
        self.generic_visit(node)
        self._class_depth -= 1

    # ------------------------------------------------------------------ #
    # For loops: unordered iteration (REPRO202).
    # ------------------------------------------------------------------ #
    def visit_For(self, node: ast.For) -> None:
        if self.ctx.deterministic and _is_unordered(node.iter):
            self._flag(node, "REPRO202",
                       "iterating an unordered set in a deterministic "
                       "subsystem — sort it (sorted(...)) before iteration")
        self.generic_visit(node)

    # ------------------------------------------------------------------ #
    # Calls: RNG confinement, stream tags, clocks, arrays-from-sets.
    # ------------------------------------------------------------------ #
    def visit_Call(self, node: ast.Call) -> None:
        canonical = self._canonical(node.func)
        terminal = terminal_name(node.func)

        if canonical is not None and not self.ctx.rng_allowed and (
                canonical.startswith("numpy.random.")
                or canonical.startswith("random.")):
            self._flag(node, "REPRO101",
                       f"call to {canonical} outside seir/seeding.py — "
                       "generators and seed sequences are constructed only "
                       "by the seed bank (repro.seir.seeding)")

        if terminal == "mix_seed":
            self._check_mix_seed(node)
        elif terminal == "ancillary_generator":
            self._check_ancillary(node)

        if self.ctx.deterministic:
            if canonical in _WALL_CLOCK:
                self._flag(node, "REPRO201",
                           f"{canonical}() in a deterministic subsystem — "
                           "wall-clock reads make runs irreproducible; pass "
                           "timestamps in from the caller")
            first = node.args[0] if node.args else None
            consumer = (canonical in _ORDER_SENSITIVE_NUMPY
                        or (isinstance(node.func, ast.Name)
                            and node.func.id in _ORDER_SENSITIVE_BUILTINS))
            if consumer and first is not None and _is_unordered(first):
                self._flag(node, "REPRO202",
                           "building an ordered sequence from an unordered "
                           "set — the element order (and any array built "
                           "from it) varies across processes; sort first")

        self.generic_visit(node)

    # ------------------------------------------------------------------ #
    def _stream_arg_ok(self, arg: ast.expr) -> bool:
        name = terminal_name(arg)
        return name is not None and name in self.registered

    def _check_mix_seed(self, node: ast.Call) -> None:
        if len(node.args) < 2:
            self._flag(node, "REPRO102",
                       "mix_seed call carries no stream tag — pass a "
                       "registered *_STREAM constant right after the base "
                       "seed (the reserved method-tag position)")
            return
        tag = node.args[1]
        if isinstance(tag, ast.Constant):
            self._flag(node, "REPRO102",
                       "integer-literal stream tag in mix_seed — the PR 5 "
                       "aliasing bug shape; register a named constant via "
                       "register_stream_tag() and pass that")
        elif not self._stream_arg_ok(tag):
            name = terminal_name(tag) or ast.dump(tag)
            self._flag(node, "REPRO102",
                       f"stream tag {name!r} in mix_seed is not a "
                       "registered stream constant (register_stream_tag)")

    def _check_ancillary(self, node: ast.Call) -> None:
        purpose: ast.expr | None = node.args[0] if node.args else None
        for kw in node.keywords:
            if kw.arg == "purpose":
                purpose = kw.value
        if purpose is None:
            return  # default purpose 0 is the documented one-shot stream
        if isinstance(purpose, ast.Constant):
            self._flag(node, "REPRO102",
                       "integer-literal ancillary purpose — register a "
                       "named constant via register_ancillary_purpose() so "
                       "consumers can never silently collide")
        elif not self._stream_arg_ok(purpose):
            name = terminal_name(purpose) or ast.dump(purpose)
            self._flag(node, "REPRO102",
                       f"ancillary purpose {name!r} is not a registered "
                       "purpose constant (register_ancillary_purpose)")


# --------------------------------------------------------------------------- #
# Scoped allowlisting: ``# repro-allow: RULE <reason>``
# --------------------------------------------------------------------------- #
#: Directive comment shape.  The reason is mandatory: an exemption nobody
#: can justify in one clause should not exist.
_ALLOW_RE = re.compile(
    r"#\s*repro-allow:\s*(?P<rule>\S+)(?:\s+(?P<reason>.+?))?\s*$")

#: A comment *starting* with the directive keyword is a directive attempt;
#: prose merely mentioning repro-allow mid-comment is not.
_ALLOW_CANDIDATE_RE = re.compile(r"#\s*repro-allow\b")

#: Rules a directive may never waive: the directive machinery itself, and
#: the syntax-error pseudo-rule.
_UNWAIVABLE = {"REPRO203", "REPRO000"}


@dataclass(frozen=True)
class AllowDirective:
    """One parsed ``# repro-allow: RULE reason`` comment.

    ``line`` is where the comment sits; ``target_line`` is the single line
    whose violations it waives — the same line for a trailing comment, the
    next code line for a comment standing alone.  The scope is deliberately
    one line: a directive can never blanket a region, let alone a file.
    """

    path: str
    line: int
    target_line: int
    rule: str
    reason: str


def parse_allow_directives(path: str, source: str
                           ) -> tuple[list[AllowDirective], list[Violation]]:
    """Extract allow directives (and directive *mistakes*) from one file.

    Tokenises rather than scanning lines so ``#`` inside string literals
    can never be mistaken for a comment.  Malformed directives — unknown
    or unwaivable rule ids, a missing reason, a missing colon — come back
    as REPRO203 violations instead of being silently ignored, because a
    directive the author believes is active but the linter cannot parse is
    worse than no directive at all.
    """
    directives: list[AllowDirective] = []
    problems: list[Violation] = []
    lines = source.splitlines()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):
        return [], []  # unparsable files are REPRO000's problem
    for tok in tokens:
        if tok.type != tokenize.COMMENT or \
                _ALLOW_CANDIDATE_RE.match(tok.string) is None:
            continue
        line, col = tok.start
        match = _ALLOW_RE.match(tok.string)
        if match is None:
            problems.append(Violation(
                path=path, line=line, col=col, rule="REPRO203",
                message="malformed repro-allow directive — the shape is "
                        "'# repro-allow: RULEID <reason>'"))
            continue
        rule = match.group("rule")
        reason = (match.group("reason") or "").strip()
        if rule not in RULES or rule in _UNWAIVABLE:
            problems.append(Violation(
                path=path, line=line, col=col, rule="REPRO203",
                message=f"repro-allow names {rule!r}, which is not a "
                        "waivable rule id"))
            continue
        if not reason:
            problems.append(Violation(
                path=path, line=line, col=col, rule="REPRO203",
                message=f"repro-allow for {rule} carries no reason — state "
                        "why this line is exempt"))
            continue
        target = line
        if not lines[line - 1][:col].strip():
            # Standalone comment: it annotates the next code line.
            for j in range(line, len(lines)):
                text = lines[j].strip()
                if text and not text.startswith("#"):
                    target = j + 1
                    break
        directives.append(AllowDirective(path=path, line=line,
                                         target_line=target, rule=rule,
                                         reason=reason))
    return directives, problems


def apply_allow_directives(violations: list[Violation],
                           directives: list[AllowDirective]
                           ) -> list[Violation]:
    """Waive directive-covered violations; flag directives that waive
    nothing.

    An unused directive is itself a REPRO203 violation: once the code it
    excused stops violating the rule, the stale exemption would silently
    re-arm the moment someone reintroduces the hazard on that line.
    """
    by_key: dict[tuple[str, int], list[AllowDirective]] = {}
    for d in directives:
        by_key.setdefault((d.rule, d.target_line), []).append(d)
    used: set[AllowDirective] = set()
    kept: list[Violation] = []
    for v in violations:
        covering = by_key.get((v.rule, v.line))
        if covering:
            used.update(covering)
        else:
            kept.append(v)
    for d in directives:
        if d not in used:
            kept.append(Violation(
                path=d.path, line=d.line, col=0, rule="REPRO203",
                message=f"unused repro-allow directive — line "
                        f"{d.target_line} does not violate {d.rule}; "
                        "delete the directive"))
    return kept


def check_file(module: ModuleInfo, context: FileContext,
               registered: set[str]) -> list[Violation]:
    """Run every per-file rule over one indexed module, resolving names
    through the import table of the scope each one sits in."""
    checker = _FileChecker(context, registered, module)
    checker.visit(module.tree)
    return checker.violations


def dispatch_violations(index: ProjectIndex,
                        sites: Iterable[DispatchSite]) -> list[Violation]:
    """Executor payload hygiene (REPRO301/302) at every dispatch site."""
    out: list[Violation] = []
    for site in sites:
        node = site.node
        if not node.args:
            continue
        fn = node.args[0]
        owner = index.functions.get(site.function)
        if isinstance(fn, ast.Lambda):
            out.append(violation_at(
                site.path, node, "REPRO301",
                "lambda dispatched through an Executor — lambdas don't "
                "pickle and hide their payload contract; use a "
                "module-level function over a dataclass task"))
        elif isinstance(fn, ast.Name) and owner is not None and any(
                isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                and sub.name == fn.id and sub is not owner.node
                for sub in ast.walk(owner.node)):
            out.append(violation_at(
                site.path, node, "REPRO301",
                f"nested function {fn.id!r} dispatched through an Executor "
                "— closures don't pickle and capture ambient state; hoist "
                "it to module level"))
        for elt in site.payload_exprs:
            if isinstance(elt, (ast.Tuple, ast.Dict, ast.List, ast.Set,
                                ast.Lambda)):
                out.append(violation_at(
                    site.path, elt, "REPRO302",
                    "executor payload is a raw tuple/dict literal — "
                    "declare a frozen dataclass task (see "
                    "hpc.sharding.ShardTask) so the payload schema is "
                    "named, typed, and lintable"))
                break
    return out


def registry_violations(registry: StaticRegistry) -> list[Violation]:
    """Cross-file duplicate-tag detection (REPRO104)."""
    out: list[Violation] = []
    for first, second in registry.duplicate_tags():
        out.append(Violation(
            path=second.path, line=second.line, col=0, rule="REPRO104",
            message=(f"stream tag {second.tag} in domain {second.domain!r} "
                     f"is registered twice: {first.stream_name!r} at "
                     f"{first.path}:{first.line} and "
                     f"{second.stream_name!r} here — two names on one tag "
                     "alias their seed streams")))
    return out
