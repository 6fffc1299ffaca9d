"""Checks on the package source itself, read with the stdlib ``ast``."""

import ast
from pathlib import Path

import radreg

MODULES = sorted(p for p in Path(radreg.__file__).parent.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """The names a module binds by its import statements, with their line numbers."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno


def test_every_import_is_used():
    # a removal that leaves its import behind shows up here
    assert MODULES
    stale = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        stale += [f"{path.name}:{line} {name}" for name, line in imported_names(tree)
                  if name not in used]
    assert stale == []
