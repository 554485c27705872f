"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

import pointsaga

MODULES = sorted(p for p in Path(pointsaga.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ imports to re-export


def unused_imports(source):
    """The names the module's imports bind that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_finds_an_unread_name():
    source = "import math\nfrom os import path as p, sep\nimport a.b\nprint(sep, a.b)\n"
    assert unused_imports(source) == [(1, "math"), (2, "p")]
