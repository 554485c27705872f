"""Every error class in errors.py is raised by some module of the package,
a size fault raises InvalidBatchSize from the one size check, a bad
constant raises a PointSagaError from every entry point that takes one, and
an array argument of non-real entries or ragged rows raises InvalidSpec or
DimensionMismatch from every entry point and family constructor that takes
one."""

import ast
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import pointsaga
from pointsaga import (FiniteSumProblem, GeneratorSpec, LyapunovWeights, SolverConfig,
                       apply_subset_step, check_coercivity, consensus_dr_run,
                       defazio_rate, dr_rate, full_gradient, gen_quadratic, initialize,
                       iteration_complexity, lyapunov, optimal_stepsize, run, run_many, step,
                       theoretical_rate, verify_one_step_contraction)
from pointsaga.errors import DimensionMismatch, InvalidBatchSize, InvalidSpec, PointSagaError
from pointsaga.problems import (LogisticBank, LogisticRidgeComponent, QuadraticBank,
                                QuadraticComponent, RankOneRidgeComponent, RidgeBank)
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


def dtype_kind_readers(source):
    """The dotted name of the innermost function around each read of
    ``<expr>.dtype.kind``, within its classes (``Class.method``); None for a
    read outside any function."""
    found = set()

    def visit(node, scope, function):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr == "kind"
                    and isinstance(child.value, ast.Attribute) and child.value.attr == "dtype"):
                found.add(function)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}" if scope else child.name
                visit(child, name, function if isinstance(child, ast.ClassDef) else name)
            else:
                visit(child, scope, function)

    visit(ast.parse(source), None, None)
    return found


def test_array_entries_are_checked_in_one_place():
    # model._check_array is the rule for an array argument's entries, a
    # family bank's or component's too; apply_subset_step's subset must hold
    # integers. A copy of the entry rule anywhere else fails.
    readers = {(path.stem, function) for path in PACKAGE.glob("*.py")
               for function in dtype_kind_readers(path.read_text())}
    assert readers == {("model", "_check_array"), ("solver", "apply_subset_step")}


def test_dtype_kind_readers_on_a_toy_source():
    source = (
        "k = a.dtype.kind\n"
        "def f(x):\n"
        "    return x.dtype.kind == 'f'\n"
        "def g(x):\n"
        "    def inner(y):\n"
        "        return np.asarray(y).dtype.kind\n"
        "    return x.dtype, x.kind\n"
        "class C:\n"
        "    def method(self):\n"
        "        return self.a.dtype.kind\n"
    )
    assert dtype_kind_readers(source) == {None, "f", "g.inner", "C.method"}


#: Each public entry point that takes an array, called on a problem, its t = 0
#: state, its known solution x* and grad_star G*, with one array argument
#: passed through the function ``a``.
_ARRAYS = {
    "run-x0": lambda p, st, xs, G, a: run(p, SolverConfig(s=2, max_iters=3), a(st.x)),
    "initialize-x0": lambda p, st, xs, G, a: initialize(p, SolverConfig(s=2), a(st.x)),
    "full_gradient": lambda p, st, xs, G, a: full_gradient(p, a(st.x)),
    "with_known_solution": lambda p, st, xs, G, a: _solution(p.with_known_solution(a(xs))),
    "FiniteSumProblem-known_solution": lambda p, st, xs, G, a: _solution(
        FiniteSumProblem(p.components, 1.0, 10.0, 3, known_solution=a(xs))),
    "consensus_dr_run-x0": lambda p, st, xs, G, a: consensus_dr_run(p, 0.1, a(st.x), G, 2),
    "consensus_dr_run-g0": lambda p, st, xs, G, a: consensus_dr_run(p, 0.1, st.x, a(G), 2),
    "check_coercivity-x": lambda p, st, xs, G, a: check_coercivity(
        p.components[0], a(st.x), xs, 1.0, 10.0),
    "check_coercivity-y": lambda p, st, xs, G, a: check_coercivity(
        p.components[0], st.x, a(xs), 1.0, 10.0),
    "lyapunov-x_star": lambda p, st, xs, G, a: lyapunov(st, p, a(xs), G, 0.1, 2),
    "lyapunov-grad_star": lambda p, st, xs, G, a: lyapunov(st, p, xs, a(G), 0.1, 2),
    "verify_one_step_contraction-x_star": lambda p, st, xs, G, a: verify_one_step_contraction(
        st, p, 0.1, 2, a(xs), G),
    "verify_one_step_contraction-grad_star": lambda p, st, xs, G, a: verify_one_step_contraction(
        st, p, 0.1, 2, xs, a(G)),
}

#: The entry points that take a solver state, called with the state given.
_STATEFUL = {
    "step": lambda p, st, xs, G: step(st, p, SolverConfig(s=2), SplitMix64(3), 0.1),
    "apply_subset_step": lambda p, st, xs, G: apply_subset_step(st, p, 0.1, [0, 2]),
    "lyapunov": lambda p, st, xs, G: lyapunov(st, p, xs, G, 0.1, 2),
    "verify_one_step_contraction": lambda p, st, xs, G: verify_one_step_contraction(
        st, p, 0.1, 2, xs, G),
}
_ARRAYS |= {f"{entry}-{name}": lambda p, st, xs, G, a, call=call, name=name: call(
                p, replace(st, **{name: a(getattr(st, name))}), xs, G)
            for entry, call in _STATEFUL.items() for name in ("x", "grad_table", "g_avg")}


def _solution(problem):
    return problem.known_solution, problem.grad_star


def _bits(result):
    """A result's arrays and numbers as (dtype, shape, bytes), in order, without
    wall clock readings: dataclasses by field, sequences item by item."""
    if isinstance(result, (list, tuple)):
        return [bits for item in result for bits in _bits(item)]
    if hasattr(result, "__dataclass_fields__"):
        return _bits([getattr(result, f) for f in result.__dataclass_fields__ if f != "wall_ns"])
    if result is None:
        return [None]
    a = np.asarray(result)
    return [(a.dtype, a.shape, a.tobytes())]


#: Array faults, each made from the array it replaces: entries of another
#: kind (InvalidSpec) or a nested list that is not rectangular (DimensionMismatch).
_FAULTS = {
    "complex": lambda a: a.astype(complex),
    "bool": lambda a: a.astype(bool),
    "object": lambda a: a.astype(object),
    "str": lambda a: a.astype(str),
    "ragged": lambda a: [a.tolist(), [0.0]],
}


def _array_case():
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=1))
    state = initialize(problem, SolverConfig(s=2), np.ones(3))
    return problem, state, problem.known_solution, problem.grad_star


@pytest.mark.parametrize("fault", list(_FAULTS))
@pytest.mark.parametrize("entry", list(_ARRAYS))
def test_every_entry_point_that_takes_an_array_raises_a_typed_error(entry, fault):
    error = DimensionMismatch if fault == "ragged" else InvalidSpec
    with pytest.raises(error, match="is not a rectangular array" if fault == "ragged"
                       else "must hold integers or floats, got dtype"):
        _ARRAYS[entry](*_array_case(), _FAULTS[fault])


@pytest.mark.parametrize("entry", list(_ARRAYS))
def test_every_entry_point_computes_a_nested_list_as_its_array(entry):
    # The array made from the list, bitwise: nothing computes on the list.
    call = _ARRAYS[entry]
    got = call(*_array_case(), lambda a: a.tolist())
    want = call(*_array_case(), lambda a: np.array(a.tolist()))
    assert _bits(got) == _bits(want)


#: Each family bank and component: its class, its arrays, whose products
#: overflow int8, and its other arguments.
_CONSTRUCTORS = {
    "QuadraticBank": (QuadraticBank, [np.eye(3)[None].repeat(2, axis=0), [[1, 2, 100], [3, 4, 5]],
                                      [[100, -100, 3], [1, 2, 3]]], []),
    "RidgeBank": (RidgeBank, [np.full((4, 3), 100), [1, 2, 3, 4]], [0.5]),
    "LogisticBank": (LogisticBank, [np.full((3, 3), 100), [1, -1, 1]], [0.1]),
    "QuadraticComponent": (QuadraticComponent, [np.eye(3), [1, 2, 100], [100, -100, 3]], []),
    "RankOneRidgeComponent": (RankOneRidgeComponent, [np.full(3, 100)], [1.0, 0.5]),
    "LogisticRidgeComponent": (LogisticRidgeComponent, [np.full(3, 100)], [1.0, 0.1]),
}


def _built(name, convert):
    """The bank or component name, built on convert(a) for each of its arrays a."""
    family, arrays, rest = _CONSTRUCTORS[name]
    return family(*(convert(np.array(a)) for a in arrays), *rest)


def _oracles(built):
    """Every oracle of a bank or a component at x = (0.5, -1, 2)."""
    x = np.array([0.5, -1.0, 2.0])
    if not hasattr(built, "gradients"):
        result = built.prox(0.1, x)
        return [built.gradient(x), built.hessian(x), result.point, result.residual]
    idx = np.arange(len(built))
    return [built.gradients(x), built.hessian_sum(x), *built.prox(0.1, idx, np.tile(x, (len(idx), 1)))]


@pytest.mark.parametrize("name", list(_CONSTRUCTORS))
def test_a_constructor_computes_int8_arrays_as_their_float64_copies(name):
    # An int8 bank or component computed in int8, and overflowed there.
    got = _oracles(_built(name, lambda a: a.astype(np.int8)))
    assert _bits(got) == _bits(_oracles(_built(name, lambda a: a.astype(np.float64))))


@pytest.mark.parametrize("fault", list(_FAULTS))
@pytest.mark.parametrize("name", list(_CONSTRUCTORS))
def test_a_constructor_raises_a_typed_error_for_each_faulty_array(name, fault):
    # A component took complex entries and computed in complex, and raised
    # numpy's ValueError for a ragged array.
    family, arrays, rest = _CONSTRUCTORS[name]
    error = DimensionMismatch if fault == "ragged" else InvalidSpec
    for k in range(len(arrays)):
        args = [np.array(a, dtype=float) for a in arrays]
        args[k] = _FAULTS[fault](args[k])
        with pytest.raises(error, match="is not a rectangular array" if fault == "ragged"
                           else "must hold integers or floats, got dtype"):
            family(*args, *rest)
