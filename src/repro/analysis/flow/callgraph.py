"""Module/function index over parsed source trees.

The one analysis pass builds this *whole-project* view once and every rule
family reads it:

* **module naming** — each ``*.py`` file gets a dotted module name (files
  under a ``repro`` package root keep their real import path, fixture trees
  are named relative to the scan root), so imports can be resolved to the
  modules that define their targets;
* **symbol table** — every function, method, and class, keyed by qualified
  name (``repro.hpc.sharding.run_shard``,
  ``repro.seir.parameters.DiseaseParameters.with_updates``);
* **local facts** — per function, which locals hold project-class
  instances and which hold generators (:class:`FunctionScanner`), with
  callee names canonicalised through the import aliases in scope.

Resolution is deliberately *partial*: calls through dynamic values (a class
object held in a variable, an attribute of an unannotated object) resolve
to nothing rather than being guessed at, so the provenance rules can miss
a leak through them but never invent one.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from ..rules import terminal_name

__all__ = ["ClassInfo", "DispatchSite", "FunctionInfo",
           "ModuleInfo", "ProjectIndex", "build_index",
           "find_dispatch_sites", "GENERATOR_METHOD_NAMES",
           "GENERATOR_SOURCE_CALLS", "GENERATOR_TYPE_NAMES"]

#: Canonical callables that construct ``numpy.random.Generator`` values.
#: The seeding API entries let fixture trees be analysed standalone (the
#: real module infers the same facts from its ``-> np.random.Generator``
#: return annotations when it is part of the scanned tree).
GENERATOR_SOURCE_CALLS = frozenset({
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "repro.seir.seeding.generator_for",
    "repro.seir.seeding.batch_generator_for",
    "repro.seir.seeding.rng_from_jsonable",
})

#: Method names that return generators wherever their receiver came from —
#: the :class:`~repro.seir.seeding.SeedSequenceBank` surface.  Name-based on
#: purpose: banks travel through parameters and dataclass fields where the
#: receiver type is rarely statically visible.
GENERATOR_METHOD_NAMES = frozenset({
    "ancillary_generator", "generator_for", "batch_generator_for",
    "rng_from_jsonable",
})

#: Canonical annotation spellings that denote a generator value.
GENERATOR_TYPE_NAMES = frozenset({
    "numpy.random.Generator", "np.random.Generator", "Generator",
})

#: Executor dispatch method names.
DISPATCH_METHODS = frozenset({"map", "map_each", "submit"})


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition."""

    qualname: str
    module: str
    path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None  # unqualified, for methods


@dataclass(frozen=True)
class ClassInfo:
    """One class definition with its annotated fields."""

    qualname: str
    module: str
    path: str
    fields: tuple[tuple[str, str, int], ...]  # (name, canonical type, line)
    method_names: tuple[str, ...]


@dataclass
class ModuleInfo:
    """One parsed module with its import alias tables.

    ``aliases`` holds the imports run at module (or class-body) level.
    ``function_aliases`` holds, for each outermost function that imports
    anything itself, ``aliases`` overlaid with that function's imports
    (nested defs count as part of it, as everywhere in this index).  Read
    both through :meth:`aliases_in`.  ``siblings`` maps the bare import
    names a script resolves in its own directory to those modules' names.
    """

    name: str
    path: str
    tree: ast.Module
    is_package: bool = False
    siblings: dict[str, str] = field(default_factory=dict)
    aliases: dict[str, str] = field(default_factory=dict)
    function_aliases: dict[int, dict[str, str]] = field(default_factory=dict)
    toplevel: set[str] = field(default_factory=set)

    def aliases_in(self, function: ast.AST | None) -> dict[str, str]:
        """The import table in force inside outermost def ``function``
        (``None``: module scope)."""
        if function is None:
            return self.aliases
        return self.function_aliases.get(id(function), self.aliases)


@dataclass(frozen=True)
class DispatchSite:
    """One ``executor.map/map_each/submit`` call with its payload."""

    module: str
    path: str
    function: str  # qualname of the enclosing function ("" at module scope)
    node: ast.Call
    target_resolved: str | None
    payload_exprs: tuple[ast.expr, ...]


def _module_name_for(path: Path, roots: list[Path]) -> tuple[str, bool]:
    """Dotted module name for ``path``; second element: is it a package."""
    parts = list(path.parts)
    rel: list[str] | None = None
    if "repro" in parts[:-1]:
        idx = len(parts) - 1 - parts[:-1][::-1].index("repro") - 1
        rel = parts[idx:]
    else:
        for root in roots:
            try:
                rel = list(path.relative_to(root).parts)
                break
            except ValueError:
                continue
        if rel is None or not rel:
            rel = [path.name]
    is_package = rel[-1] == "__init__.py"
    rel[-1] = rel[-1][:-3] if rel[-1].endswith(".py") else rel[-1]
    if is_package:
        rel = rel[:-1]
    return ".".join(rel), is_package


def _script_siblings(paths: list[Path], roots: list[Path]
                     ) -> dict[Path, dict[str, str]]:
    """Per directory without an ``__init__.py``, its modules by bare name.

    Python runs a file there as a script, with the file's own directory
    first on ``sys.path``, so ``from rngtools import f`` in it imports the
    sibling ``rngtools.py`` whatever the scan root names that module.
    """
    packages = {p.parent for p in paths if p.name == "__init__.py"}
    siblings: dict[Path, dict[str, str]] = {}
    for path in paths:
        if path.parent not in packages:
            siblings.setdefault(path.parent, {})[path.stem] = \
                _module_name_for(path, roots)[0]
    return siblings


def _resolve_absolute(module: ModuleInfo, dotted: str) -> str:
    """``dotted`` as imported from ``module``: a script's sibling first."""
    head, dot, rest = dotted.partition(".")
    return module.siblings[head] + dot + rest if head in module.siblings \
        else dotted


def _resolve_relative(module: ModuleInfo, imported: str | None,
                      level: int) -> str:
    """Absolute module targeted by a ``from ... import`` with ``level`` dots."""
    if level == 0:
        return _resolve_absolute(module, imported or "")
    parts = module.name.split(".") if module.name else []
    # For a plain module, one dot means its own package; for a package
    # (__init__), one dot means the package itself.
    drop = level if not module.is_package else level - 1
    base = parts[: len(parts) - drop] if drop <= len(parts) else []
    if imported:
        base = base + [imported]
    return ".".join(base)


class ProjectIndex:
    """Whole-project symbol table plus canonical-name resolution."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}

    # ------------------------------------------------------------------ #
    def canonical(self, module: ModuleInfo, expr: ast.expr,
                  local_types: dict[str, str] | None = None,
                  scope: ast.AST | None = None) -> str | None:
        """Dotted name of ``expr`` with aliases and local types applied.

        ``local_types`` maps local variable names to the qualified class
        whose constructor produced them, so ``engine.run_until`` resolves
        through ``engine = BatchedBinomialLeapEngine(...)``.  ``scope`` is
        the outermost def ``expr`` sits in (``None``: module scope), whose
        own imports shadow the module's.
        """
        if isinstance(expr, ast.Name):
            if local_types and expr.id in local_types:
                return local_types[expr.id]
            aliases = module.aliases_in(scope)
            if expr.id in aliases:
                return aliases[expr.id]
            if expr.id in module.toplevel and module.name:
                return f"{module.name}.{expr.id}"
            return expr.id
        if isinstance(expr, ast.Attribute):
            base = self.canonical(module, expr.value, local_types, scope)
            return None if base is None else f"{base}.{expr.attr}"
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            # String annotation ("BatchTrajectory") — parse and retry.
            try:
                inner = ast.parse(expr.value, mode="eval").body
            except SyntaxError:
                return None
            return self.canonical(module, inner, local_types, scope)
        if isinstance(expr, ast.Subscript):
            # Optional[X] / list[X]: the escape rules care about the payload.
            return self.canonical(module, expr.value, local_types, scope)
        return None

    def resolve_function(self, canonical: str | None) -> str | None:
        """Project function qualname a canonical callee name reaches."""
        return canonical if canonical in self.functions else None

    def is_generator_annotation(self, module: ModuleInfo,
                                annotation: ast.expr | None,
                                scope: ast.AST | None = None) -> bool:
        if annotation is None:
            return False
        canon = self.canonical(module, annotation, scope=scope)
        if canon is None:
            return False
        return canon in GENERATOR_TYPE_NAMES or canon in {
            f"{module.name}.{t}" for t in GENERATOR_TYPE_NAMES}


def _bind_import(module: ModuleInfo, node: ast.AST,
                 table: dict[str, str]) -> None:
    """Record the names an import statement ``node`` binds in ``table``."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.asname:
                table[alias.asname] = _resolve_absolute(module, alias.name)
            else:
                root = alias.name.split(".")[0]
                table[root] = _resolve_absolute(module, root)
    elif isinstance(node, ast.ImportFrom):
        target = _resolve_relative(module, node.module, node.level)
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name
            table[bound] = (f"{target}.{alias.name}"
                            if target else alias.name)


def _collect_aliases(module: ModuleInfo) -> None:
    """Fill the module's import tables, scope by scope.

    An import binds in the scope that runs it: at module or class-body
    level it binds module-wide, inside a function only in that function —
    so a local ``import datetime`` cannot shadow a module-level ``from
    datetime import datetime`` in the file's other functions.
    """
    functions: list[ast.AST] = []
    todo: deque[ast.AST] = deque([module.tree])  # breadth-first, as ast.walk
    while todo:
        node = todo.popleft()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(node)
            continue
        _bind_import(module, node, module.aliases)
        todo.extend(ast.iter_child_nodes(node))
    for function in functions:
        own: dict[str, str] = {}
        for node in ast.walk(function):
            _bind_import(module, node, own)
        if own:
            module.function_aliases[id(function)] = {**module.aliases, **own}


def _collect_toplevel(module: ModuleInfo) -> None:
    for stmt in module.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            module.toplevel.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    module.toplevel.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                            ast.Name):
            module.toplevel.add(stmt.target.id)


def _collect_definitions(index: ProjectIndex, module: ModuleInfo) -> None:
    prefix = f"{module.name}." if module.name else ""
    for stmt in module.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{prefix}{stmt.name}"
            index.functions[qual] = FunctionInfo(
                qualname=qual, module=module.name, path=module.path,
                node=stmt)
        elif isinstance(stmt, ast.ClassDef):
            cls_qual = f"{prefix}{stmt.name}"
            fields: list[tuple[str, str, int]] = []
            methods: list[str] = []
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.append(item.name)
                    mqual = f"{cls_qual}.{item.name}"
                    index.functions[mqual] = FunctionInfo(
                        qualname=mqual, module=module.name, path=module.path,
                        node=item, class_name=stmt.name)
                elif isinstance(item, ast.AnnAssign) and \
                        isinstance(item.target, ast.Name):
                    canon = index.canonical(module, item.annotation) or ""
                    fields.append((item.target.id, canon, item.lineno))
            index.classes[cls_qual] = ClassInfo(
                qualname=cls_qual, module=module.name, path=module.path,
                fields=tuple(fields), method_names=tuple(methods))


def build_index(trees: dict[str, ast.Module],
                roots: Iterable[str | Path]) -> ProjectIndex:
    """Index every parsed module of the project.

    ``trees`` maps display paths to parsed modules; ``roots`` are the
    scan roots used to name modules that do not live under a ``repro``
    package directory (fixture trees).
    """
    root_paths = [Path(r) for r in roots]
    siblings = _script_siblings([Path(p) for p in trees], root_paths)
    index = ProjectIndex()
    for path_str, tree in trees.items():
        name, is_package = _module_name_for(Path(path_str), root_paths)
        if name in index.modules:
            # Two scan roots hold one relative name (``a/x.py b/x.py``):
            # name this file by its whole path so neither module is lost.
            name = ".".join(Path(path_str).with_suffix("").parts)
        module = ModuleInfo(name=name, path=path_str, tree=tree,
                            is_package=is_package,
                            siblings=siblings.get(Path(path_str).parent, {}))
        _collect_aliases(module)
        _collect_toplevel(module)
        index.modules[name] = module
        _collect_definitions(index, module)
    return index


# --------------------------------------------------------------------------- #
# Per-function scanning: local types and generator locals
# --------------------------------------------------------------------------- #
class FunctionScanner:
    """Single forward pass over one function body.

    Tracks two kinds of local facts the later passes share: which locals
    hold project-class instances (so their method calls resolve) and which
    hold generator values (so escapes can be spotted).  Nested function
    bodies are scanned as part of their parent — an over-approximation
    that matches how this codebase uses nested defs (define-then-call).
    """

    def __init__(self, index: ProjectIndex, module: ModuleInfo,
                 info: FunctionInfo,
                 generator_returning: frozenset[str] = frozenset()) -> None:
        self.index = index
        self.module = module
        self.info = info
        self.generator_returning = generator_returning
        self.local_types: dict[str, str] = {}
        self.generator_locals: set[str] = set()
        self.returns_generator = False
        self._seed_parameter_facts()

    # ------------------------------------------------------------------ #
    def _seed_parameter_facts(self) -> None:
        node = self.info.node
        if self.info.class_name is not None:
            cls_qual = f"{self.module.name}.{self.info.class_name}" \
                if self.module.name else self.info.class_name
            args = node.args.posonlyargs + node.args.args
            if args and args[0].arg in ("self", "cls"):
                self.local_types[args[0].arg] = cls_qual
        for arg in (node.args.posonlyargs + node.args.args
                    + node.args.kwonlyargs):
            if arg.annotation is None:
                continue
            if self.index.is_generator_annotation(self.module, arg.annotation):
                self.generator_locals.add(arg.arg)
                continue
            canon = self.index.canonical(self.module, arg.annotation)
            if canon is not None and canon in self.index.classes:
                self.local_types[arg.arg] = canon

    # ------------------------------------------------------------------ #
    def call_is_generator_valued(self, call: ast.Call) -> bool:
        canon = self.index.canonical(self.module, call.func, self.local_types,
                                     self.info.node)
        if canon in GENERATOR_SOURCE_CALLS or \
                canon in self.generator_returning:
            return True
        attr = terminal_name(call.func)
        return attr is not None and attr in GENERATOR_METHOD_NAMES \
            and isinstance(call.func, ast.Attribute)

    def expr_is_generator_valued(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in self.generator_locals
        if isinstance(expr, ast.Call):
            return self.call_is_generator_valued(expr)
        if isinstance(expr, ast.IfExp):
            return (self.expr_is_generator_valued(expr.body)
                    or self.expr_is_generator_valued(expr.orelse))
        return False

    # ------------------------------------------------------------------ #
    def scan(self) -> "FunctionScanner":
        # Pass 1 (run twice so simple alias chains like ``r2 = rng`` reach
        # a fixpoint regardless of walk order): collect local bindings
        # anywhere in the body, including inside control flow and nested
        # defs.  Pass 2: returns — after all bindings, so receiver types
        # are visible wherever the construct-then-use pattern puts the
        # construction.
        for _ in range(2):
            for node in ast.walk(self.info.node):
                if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Name):
                    self._record_binding(node.targets[0].id, node.value)
                elif isinstance(node, ast.AnnAssign) and \
                        isinstance(node.target, ast.Name):
                    self._record_ann_binding(node)
        self.returns_generator = any(
            isinstance(node, ast.Return) and node.value is not None
            and self.expr_is_generator_valued(node.value)
            for node in ast.walk(self.info.node))
        return self

    def _record_ann_binding(self, stmt: ast.AnnAssign) -> None:
        assert isinstance(stmt.target, ast.Name)
        if self.index.is_generator_annotation(self.module, stmt.annotation,
                                              self.info.node):
            self.generator_locals.add(stmt.target.id)
        else:
            canon = self.index.canonical(self.module, stmt.annotation,
                                         None, self.info.node)
            if canon is not None and canon in self.index.classes:
                self.local_types[stmt.target.id] = canon
        if stmt.value is not None and \
                self.expr_is_generator_valued(stmt.value):
            self.generator_locals.add(stmt.target.id)

    def _record_binding(self, name: str, value: ast.expr) -> None:
        if self.expr_is_generator_valued(value):
            self.generator_locals.add(name)
            return
        if isinstance(value, ast.Call):
            canon = self.index.canonical(self.module, value.func,
                                         self.local_types, self.info.node)
            if canon is None:
                return
            if canon in self.index.classes:
                self.local_types[name] = canon
                return
            resolved = self.index.resolve_function(canon)
            if resolved is not None:
                ret = self.index.functions[resolved].node.returns
                ret_module = self.index.modules.get(
                    self.index.functions[resolved].module)
                if ret is not None and ret_module is not None:
                    ret_canon = self.index.canonical(ret_module, ret)
                    if ret_canon is not None and \
                            ret_canon in self.index.classes:
                        self.local_types[name] = ret_canon


# --------------------------------------------------------------------------- #
# Dispatch-site discovery (shared by the payload-hygiene and provenance
# checks)
# --------------------------------------------------------------------------- #
def _is_dispatch(call: ast.Call) -> bool:
    """``<receiver>.map/map_each/submit(...)`` on a receiver whose name,
    leading underscores dropped, ends in ``executor`` or ``pool``."""
    func = call.func
    if not isinstance(func, ast.Attribute) or \
            func.attr not in DISPATCH_METHODS:
        return False
    receiver = terminal_name(func.value)
    return receiver is not None and \
        receiver.lstrip("_").lower().endswith(("executor", "pool"))


def _payload_exprs(scope: ast.AST, tasks: ast.expr) -> list[ast.expr]:
    """Statically visible payload element expressions of one dispatch."""
    if isinstance(tasks, (ast.ListComp, ast.GeneratorExp)):
        return [tasks.elt]
    if isinstance(tasks, (ast.List, ast.Tuple)):
        return list(tasks.elts)
    if isinstance(tasks, ast.Name):
        out: list[ast.expr] = []
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Name) and \
                    node.targets[0].id == tasks.id:
                if isinstance(node.value, (ast.List, ast.Tuple)):
                    out.extend(node.value.elts)
                elif isinstance(node.value, (ast.ListComp, ast.GeneratorExp)):
                    out.append(node.value.elt)
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "append" and \
                    isinstance(node.func.value, ast.Name) and \
                    node.func.value.id == tasks.id and node.args:
                out.append(node.args[0])
        return out
    return []


def find_dispatch_sites(index: ProjectIndex) -> list[DispatchSite]:
    """Every executor dispatch call in the project, with resolved targets.

    Each module is walked whole, so a dispatch at module or class-body
    scope is found too; a call inside a nested def belongs to the indexed
    function that holds it.
    """
    owners = {id(info.node): info for info in index.functions.values()}
    local_types: dict[str, dict[str, str]] = {}
    sites: list[DispatchSite] = []
    for module in index.modules.values():
        stack: list[tuple[ast.AST, FunctionInfo | None]] = [(module.tree,
                                                             None)]
        while stack:
            node, owner = stack.pop()
            owner = owners.get(id(node), owner)
            stack.extend((child, owner)
                         for child in ast.iter_child_nodes(node))
            if not isinstance(node, ast.Call) or not _is_dispatch(node):
                continue
            types = None
            if owner is not None:
                if owner.qualname not in local_types:
                    local_types[owner.qualname] = FunctionScanner(
                        index, module, owner).scan().local_types
                types = local_types[owner.qualname]
            target = node.args[0] if node.args else None
            target_canon = None
            if target is not None:
                target_canon = index.resolve_function(index.canonical(
                    module, target, types,
                    owner.node if owner is not None else None))
            payload: list[ast.expr] = []
            if len(node.args) > 1:
                payload = _payload_exprs(
                    owner.node if owner is not None else module.tree,
                    node.args[1])
            sites.append(DispatchSite(
                module=module.name, path=module.path,
                function=owner.qualname if owner is not None else "",
                node=node, target_resolved=target_canon,
                payload_exprs=tuple(payload)))
    sites.sort(key=lambda s: (s.path, s.node.lineno, s.node.col_offset))
    return sites
