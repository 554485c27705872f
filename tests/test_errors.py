"""Every error class in errors.py is raised by some module of the package,
a size fault raises InvalidBatchSize from the one size check, and a bad
constant raises a PointSagaError from every entry point that takes one."""

import ast
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import pointsaga
from pointsaga import (GeneratorSpec, LyapunovWeights, SolverConfig, apply_subset_step,
                       check_coercivity, consensus_dr_run, defazio_rate, dr_rate, gen_quadratic,
                       initialize, iteration_complexity, lyapunov, optimal_stepsize, run,
                       run_many, step, theoretical_rate, verify_one_step_contraction)
from pointsaga.errors import InvalidBatchSize, PointSagaError
from pointsaga.sampling import SplitMix64, sample_k_subset, sample_subsets, subset_rows

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


def raising_functions(source, name):
    """The innermost function around each raise of name, as ``raise name``,
    ``raise name(...)`` or through an attribute such as ``errors.name``;
    None for a raise outside any function."""
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) == name:
                    found.add(function)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(ast.parse(source), None)
    return found


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


def test_batch_sizes_are_checked_in_one_place():
    # _check_sizes is the size check; apply_subset_step's check is of a
    # given subset's contents. A copy of the size check anywhere else fails.
    raisers = {(path.stem, function) for path in PACKAGE.glob("*.py")
               for function in raising_functions(path.read_text(), "InvalidBatchSize")}
    assert raisers == {("errors", "_check_sizes"), ("solver", "apply_subset_step")}


def test_raising_functions_on_a_toy_source():
    source = (
        "class A(Exception): pass\n"
        "if flag:\n"
        "    raise A\n"
        "def f(x):\n"
        "    raise A(x)\n"
        "def g(x):\n"
        "    def inner():\n"
        "        raise errors.A('x') from None\n"
        "    raise B(x)\n"
        "class C:\n"
        "    def method(self):\n"
        "        if self:\n"
        "            raise A\n"
        "        raise\n"
    )
    assert raising_functions(source, "A") == {None, "f", "inner", "method"}
    assert raising_functions(source, "B") == {"g"}
    assert raising_functions(source, "C") == set()


#: Sizes no entry point takes: s outside 1 <= s <= n, or not an integer, and
#: an n that is not an integer.
_BAD_SIZES = {"s-0": (0, 10), "s-n+1": (11, 10), "s-2.0": (2.0, 10),
              "n-10.0": (1, 10.0), "n-nan": (1, float("nan"))}

#: Each entry point that takes a batch size, called with (s, problem).
_SIZED = {
    "theoretical_rate": lambda s, p: theoretical_rate(0.1, s, p.n, 1.0, 10.0),
    "optimal_stepsize": lambda s, p: optimal_stepsize(s, p.n, 1.0, 10.0),
    "defazio_rate": lambda s, p: defazio_rate(0.1, p.n, 1.0, 10.0),  # n only
    "SolverConfig.validate": lambda s, p: SolverConfig(s=s).validate(p),
    "run": lambda s, p: run(p, SolverConfig(s=s, max_iters=1), np.ones(2)),
    # Every config is checked before any iteration, the second one too.
    "run_many": lambda s, p: run_many(p, [SolverConfig(max_iters=1), SolverConfig(s=s, max_iters=1)],
                                      np.ones(2)),
    # Before the state or the solution is read: s sets Psi's weight w_x.
    "lyapunov": lambda s, p: lyapunov(None, p, None, None, 0.1, s),
    "sample_k_subset": lambda s, p: sample_k_subset(SplitMix64(0), p.n, s),
    "sample_subsets": lambda s, p: sample_subsets(SplitMix64(0), p.n, s, 3),
    "subset_rows": lambda s, p: subset_rows(p.n, s),
    # The sizes are checked before the state or the solution is read.
    "verify_one_step_contraction":
        lambda s, p: verify_one_step_contraction(None, p, 0.1, s, None, None),
}


@pytest.mark.parametrize("entry,size", [
    (entry, size) for entry in _SIZED for size in _BAD_SIZES
    if entry != "defazio_rate" or size.startswith("n-")])
def test_every_entry_point_raises_invalid_batch_size(entry, size):
    s, n = _BAD_SIZES[size]
    # A problem's n is its length, always an integer: a stand-in carries the
    # others, with the real problem's constants.
    if type(n) is int:
        problem = gen_quadratic(GeneratorSpec("quadratic", n, 2, 1.0, 10.0, seed=1))
    else:
        problem = SimpleNamespace(n=n, mu=1.0, L=10.0)
    with pytest.raises(InvalidBatchSize):
        _SIZED[entry](s, problem)


#: Each public entry point that takes constants, called with one bad one
#: (mu = -1, gamma = 0 or refresh_every = 0) on a problem, its t = 0 state
#: and a point.
_CONSTANTS = {
    "theoretical_rate": lambda p, st, x: theoretical_rate(0.1, 1, p.n, -1.0, 10.0),
    "optimal_stepsize": lambda p, st, x: optimal_stepsize(1, p.n, -1.0, 10.0),
    "defazio_rate": lambda p, st, x: defazio_rate(0.1, p.n, -1.0, 10.0),
    "dr_rate": lambda p, st, x: dr_rate(0.1, -1.0, 10.0),
    "iteration_complexity": lambda p, st, x: iteration_complexity(0.1, 1, p.n, -1.0, 10.0,
                                                                  1.0, 0.5),
    "LyapunovWeights.from_constants": lambda p, st, x: LyapunovWeights.from_constants(
        0.1, 1, -1.0, 10.0),
    "lyapunov": lambda p, st, x: lyapunov(st, p, p.known_solution, p.grad_star, 0.0, 1),
    "check_coercivity": lambda p, st, x: check_coercivity(p.components[0], x, x + 1.0,
                                                          -1.0, 10.0),
    "consensus_dr_run": lambda p, st, x: consensus_dr_run(p, 0.0, x, st.grad_table, 1),
    "apply_subset_step": lambda p, st, x: apply_subset_step(st, p, 0.0, [0]),
    "step": lambda p, st, x: step(st, p, SolverConfig(refresh_every=0), SplitMix64(0), 0.1),
    "verify_one_step_contraction": lambda p, st, x: verify_one_step_contraction(
        st, p, 0.0, 1, p.known_solution, p.grad_star),
    "run": lambda p, st, x: run(p, SolverConfig(refresh_every=0), x),
    "run_many": lambda p, st, x: run_many(p, [SolverConfig(), SolverConfig(gamma=0.0)], x),
}


@pytest.mark.parametrize("entry", list(_CONSTANTS))
def test_every_entry_point_that_takes_constants_raises_a_typed_error(entry):
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=1))
    x = np.ones(3)
    with pytest.raises(PointSagaError):
        _CONSTANTS[entry](problem, initialize(problem, SolverConfig(), x), x)
