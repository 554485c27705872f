"""Every error class in errors.py is raised by some module of the package."""

import ast
from pathlib import Path

import pointsaga

PACKAGE = Path(pointsaga.__file__).parent


def error_classes(source):
    """The classes the source defines that derive, directly or through another
    of its classes, from PointSagaError (which is not itself counted)."""
    names = {"PointSagaError"}
    for node in ast.parse(source).body:  # a base is defined before its subclasses
        if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id in names for base in node.bases):
            names.add(node.name)
    return names - {"PointSagaError"}


def raised_names(source):
    """The names the source's raise statements raise: ``raise X`` and ``raise X(...)``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_error_class_is_raised():
    raised = set().union(*(raised_names(p.read_text()) for p in PACKAGE.glob("*.py")))
    assert sorted(error_classes((PACKAGE / "errors.py").read_text()) - raised) == []


def test_error_classes_and_raised_names_on_a_toy_source():
    source = (
        "class PointSagaError(Exception): pass\n"
        "class A(PointSagaError, ValueError): pass\n"
        "class B(A): pass\n"
        "class C(ValueError): pass\n"
        "def f(x):\n"
        "    if x:\n"
        "        raise A('x')\n"
        "    try:\n"
        "        pass\n"
        "    except C:\n"
        "        raise\n"
        "    raise errors.B from None\n"
    )
    assert error_classes(source) == {"A", "B"}
    assert raised_names(source) == {"A"}
