"""Layering: the simulator (``repro.seir``) and the dispatch layer
(``repro.hpc``) sit below the calibrator, so no module of theirs imports
``repro.core``.  Worker processes then load the kernel and the shard
payloads without the calibrator package.

The check reads every import statement (module level and function local)
with :mod:`ast`, resolving relative imports against the module's package.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
LOWER_LAYERS = ("seir", "hpc")


def imported_modules(path):
    """Absolute names of every module ``path`` imports from."""
    # A module's package is its directory, ``__init__.py`` included.
    package = list(path.relative_to(SRC).parts[:-1])
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] \
                if node.level else []
            stem = ".".join(base + ([node.module] if node.module else []))
            names.append(stem)
            names.extend(f"{stem}.{alias.name}" for alias in node.names)
    return names


def layer_modules():
    return sorted(p for layer in LOWER_LAYERS
                  for p in (SRC / "repro" / layer).rglob("*.py"))


def test_every_lower_layer_module_is_scanned():
    found = {p.relative_to(SRC / "repro").parts[0] for p in layer_modules()}
    assert found == set(LOWER_LAYERS)


@pytest.mark.parametrize("path", layer_modules(),
                         ids=lambda p: str(p.relative_to(SRC)))
def test_lower_layers_do_not_import_the_calibrator(path):
    offending = [name for name in imported_modules(path)
                 if name == "repro.core" or name.startswith("repro.core.")]
    assert not offending, offending


def test_relative_imports_resolve_to_absolute_names():
    names = imported_modules(SRC / "repro" / "hpc" / "sharding.py")
    assert "repro.seir.batch_engine" in names
    assert "repro.hpc.executor" in names
