"""Layering: the simulator (``repro.seir``) and the dispatch layer
(``repro.hpc``) sit below the calibrator, so no module of theirs imports
anything above them.  Worker processes then load the kernel and the shard
payloads without the calibrator package.

The one executor dispatch target, ``repro.hpc.sharding.run_shard``, runs
only code of these two packages, so a shard's output stays a function of
its task if every module here is pure in the ways a retried or resumed
shard needs: no module-global writes and no file access outside the
checkpoint store (checked below), no clock reads (REPRO201) and no ambient
RNG (REPRO101; both are ``python -m repro.analysis`` rules).

The checks read every statement with :mod:`ast`, resolving relative
imports against the module's package.
"""

import ast
from pathlib import Path

import pytest

from repro.analysis import run

SRC = Path(__file__).resolve().parent.parent / "src"
LOWER_LAYERS = ("seir", "hpc")

#: The imports above the lower layers, each pinned to the def that runs it:
#: ``channel_matrix`` reads the stream table when called, so the kernel's
#: module never loads ``repro.data``.
UPWARD_IMPORTS = {
    ("repro/seir/batch_engine.py", "BatchTrajectory.channel_matrix",
     "repro.data.sources"),
}

#: The one lower-layer module whose job is files: the checkpoint store.
FILE_STORE = "repro/hpc/checkpoint_io.py"

#: Callables that touch the filesystem, by canonical dotted name; every
#: callable of the ``FS_MODULES`` does.
FS_CALLS = {
    "open", "io.open", "os.open", "os.remove", "os.unlink", "os.rename",
    "os.replace", "os.mkdir", "os.makedirs", "os.rmdir", "os.listdir",
    "os.scandir", "os.stat", "os.path.exists", "os.path.isfile",
    "os.path.isdir", "numpy.save", "numpy.savez", "numpy.savez_compressed",
    "numpy.load", "numpy.savetxt", "numpy.loadtxt", "json.dump",
    "json.load", "pickle.dump", "pickle.load",
}
FS_MODULES = ("shutil", "tempfile", "glob")
#: ``pathlib.Path`` methods that touch the filesystem (by name: receivers
#: are untyped, and no other lower-layer object has these methods).
FS_METHODS = {
    "open", "write_text", "write_bytes", "read_text", "read_bytes", "mkdir",
    "unlink", "touch", "rmdir", "glob", "rglob", "iterdir", "exists",
    "is_file", "is_dir", "stat",
}

FIXTURE = (Path(__file__).parent / "analysis" / "fixtures" / "bad" / "seir"
           / "impure_helpers.py")


def scoped_nodes(tree):
    """``(scope, node)`` for every node; ``scope`` is the dotted name of
    the enclosing defs and classes (``""`` at module level)."""
    stack = [("", tree)]
    while stack:
        scope, node = stack.pop()
        yield scope, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}".lstrip(".")
        stack.extend((scope, child) for child in ast.iter_child_nodes(node))


def imports(path):
    """``(scope, module)`` for every module ``path`` imports from, with
    absolute names (``from .x import y`` yields ``pkg.x`` and
    ``pkg.x.y``)."""
    # A module's package is its directory, ``__init__.py`` included.
    package = list(path.relative_to(SRC).parts[:-1])
    found = []
    for scope, node in scoped_nodes(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.extend((scope, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] \
                if node.level else []
            stem = ".".join(base + ([node.module] if node.module else []))
            found.append((scope, stem))
            found.extend((scope, f"{stem}.{alias.name}")
                         for alias in node.names)
    return found


def module_state_writes(path):
    """Lines that write module state: a ``global`` statement, or an
    augmented assignment to a module-level name.  A write through a
    subscript or a method (``_TABLE_CACHE[key] = ...``) is not one."""
    tree = ast.parse(path.read_text(), str(path))
    names = {target.id for stmt in tree.body
             if isinstance(stmt, (ast.Assign, ast.AnnAssign))
             for target in (stmt.targets if isinstance(stmt, ast.Assign)
                            else [stmt.target])
             if isinstance(target, ast.Name)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Global)
                  or (isinstance(node, ast.AugAssign)
                      and isinstance(node.target, ast.Name)
                      and node.target.id in names))


def file_accesses(path):
    """``(line, callee)`` for every call that touches the filesystem."""
    tree = ast.parse(path.read_text(), str(path))
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                aliases[alias.asname or root] = \
                    alias.name if alias.asname else root
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                aliases[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"

    def dotted(expr):
        if isinstance(expr, ast.Name):
            return aliases.get(expr.id, expr.id)
        if isinstance(expr, ast.Attribute):
            base = dotted(expr.value)
            return base and f"{base}.{expr.attr}"
        return None

    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted(node.func) or ""
        if name in FS_CALLS or name.split(".")[0] in FS_MODULES or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in FS_METHODS):
            found.append((node.lineno, ast.unparse(node.func)))
    return sorted(found)


def layer_modules():
    return sorted(p for layer in LOWER_LAYERS
                  for p in (SRC / "repro" / layer).rglob("*.py"))


def module_id(path):
    return path.relative_to(SRC).as_posix()


def test_every_lower_layer_module_is_scanned():
    found = {p.relative_to(SRC / "repro").parts[0] for p in layer_modules()}
    assert found == set(LOWER_LAYERS)


@pytest.mark.parametrize("path", layer_modules(), ids=module_id)
def test_lower_layers_do_not_import_the_calibrator(path):
    """Nothing above the lower layers is imported, ``repro.core`` least of
    all: only the pinned :data:`UPWARD_IMPORTS`, each where it is pinned."""
    upward = {(module_id(path), scope, ".".join(name.split(".")[:3]))
              for scope, name in imports(path)
              if name.split(".")[0] == "repro"
              and name.split(".")[1:2] not in [[x] for x in LOWER_LAYERS]}
    assert upward == {pin for pin in UPWARD_IMPORTS
                      if pin[0] == module_id(path)}


@pytest.mark.parametrize("path", layer_modules(), ids=module_id)
def test_lower_layers_write_no_module_state(path):
    assert module_state_writes(path) == []


@pytest.mark.parametrize("path", layer_modules(), ids=module_id)
def test_only_the_checkpoint_store_touches_files(path):
    if module_id(path) == FILE_STORE:
        assert file_accesses(path), "the store's file calls went unseen"
    else:
        assert file_accesses(path) == []


def test_one_violation_per_effect_class():
    """A lower-layer module with one effect per helper fails four checks:
    the clock read (REPRO201) and the legacy ``numpy.random`` draw
    (REPRO101) in the analysis pass, the counter in the module-state
    check, and the spill file in the file check."""
    lines = FIXTURE.read_text().splitlines()

    def line_of(text):
        return next(i + 1 for i, line in enumerate(lines) if text in line)

    assert sorted((v.rule, v.line) for v in run([str(FIXTURE)])) == [
        ("REPRO101", line_of("np.random.rand")),
        ("REPRO201", line_of("time.time"))]
    assert module_state_writes(FIXTURE) == [line_of("global _CALLS"),
                                            line_of("_CALLS += 1")]
    assert file_accesses(FIXTURE) == [(line_of("open("), "open")]


def test_relative_imports_resolve_to_absolute_names():
    names = [name for _, name in
             imports(SRC / "repro" / "hpc" / "sharding.py")]
    assert "repro.seir.batch_engine" in names
    assert "repro.hpc.executor" in names
