import re

import numpy as np
import pytest

from pointsaga import (
    FiniteSumProblem,
    GeneratorSpec,
    GenericComponent,
    QuadraticComponent,
    SolverConfig,
    SolverState,
    assemble_problem,
    consensus_dr_run,
    full_gradient,
    gen_logistic_ridge,
    gen_quadratic,
    gen_ridge_regression,
    load_libsvm,
    lyapunov,
    reference_solution,
    run,
    run_many,
)
from pointsaga.errors import (
    DimensionMismatch,
    EmptyComponentList,
    InvalidConstants,
    InvalidKnownSolution,
    InvalidSpec,
)
from pointsaga.model import TOL_STAR, ComponentBank, _row_total
from pointsaga.problems import QuadraticBank


def identity_quadratic(dim):
    """f(x) = ||x||^2 / 2."""
    return QuadraticComponent(np.eye(dim), np.ones(dim), np.zeros(dim))


def test_assemble_single_identity_quadratic():
    problem = assemble_problem([identity_quadratic(2)], mu=1.0, L=1.0, dim=2)
    assert problem.n == 1
    assert problem.known_solution is None


def test_assemble_empty_components():
    with pytest.raises(EmptyComponentList):
        assemble_problem([], mu=1.0, L=2.0, dim=2)


@pytest.mark.parametrize("mu,L,dim", [("1", "10", "3"), (1.0, 10.0, 3.7), (1.0, 10.0, 3.0),
                                      (1.0, 10.0, "3"), (1.0, 10.0, None)])
def test_a_problem_refuses_constants_it_would_have_to_coerce(mu, L, dim):
    # assemble_problem coerced strings and a 3.7 dim before the problem
    # checked them, and FiniteSumProblem kept a 3.0 dim.
    components = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=1)).components
    for build in (assemble_problem, FiniteSumProblem):
        with pytest.raises(InvalidConstants):
            build(components, mu, L, dim)


def test_a_problem_binds_its_constants_as_python_numbers():
    components = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=1)).components
    for build in (assemble_problem, FiniteSumProblem):
        problem = build(components, np.float32(1.0), 10, np.int64(3))
        assert [type(value) for value in (problem.mu, problem.L, problem.dim)] == [float, float, int]
        assert (problem.mu, problem.L, problem.dim) == (1.0, 10.0, 3)


def test_assemble_invalid_constants():
    with pytest.raises(InvalidConstants):
        assemble_problem([identity_quadratic(2)], mu=2.0, L=1.0, dim=2)
    with pytest.raises(InvalidConstants):
        assemble_problem([identity_quadratic(2)], mu=0.0, L=1.0, dim=2)
    # Infinite constants are refused at construction, not by a later run.
    for mu, L in ((1.0, float("inf")), (float("inf"), float("inf"))):
        with pytest.raises(InvalidConstants, match="need finite 0 < mu <= L"):
            FiniteSumProblem((identity_quadratic(1),), mu, L, 1, known_solution=np.zeros(1))


def test_full_gradient_single():
    problem = assemble_problem([identity_quadratic(2)], 1.0, 1.0, 2)
    g = full_gradient(problem, np.array([3.0, 0.0]))
    assert np.array_equal(g, np.array([3.0, 0.0]))


def test_full_gradient_two_components():
    comps = [identity_quadratic(2), identity_quadratic(2)]
    problem = assemble_problem(comps, 1.0, 1.0, 2)
    g = full_gradient(problem, np.array([1.0, 1.0]))
    assert np.array_equal(g, np.array([2.0, 2.0]))


def test_full_gradient_dimension_mismatch():
    problem = assemble_problem([identity_quadratic(2)], 1.0, 1.0, 2)
    with pytest.raises(DimensionMismatch):
        full_gradient(problem, np.zeros(3))


def test_full_gradient_at_planted_solution():
    problem = gen_quadratic(GeneratorSpec("quadratic", 5, 3, 1.0, 10.0, seed=1))
    g = full_gradient(problem, problem.known_solution)
    assert np.linalg.norm(g) <= problem.n * TOL_STAR


def _shape_fault(call):
    """call on a 4-component problem whose dim is np.int64(3), a zero state
    of it and its true x* and gradient table."""
    bank = gen_quadratic(GeneratorSpec("quadratic", 4, 3, 1.0, 10.0, seed=1)).components
    problem = FiniteSumProblem(bank, 1.0, 10.0, np.int64(3))
    state = SolverState(0, np.zeros(3), np.zeros((4, 3)), np.zeros(3))
    x_star = reference_solution(problem)
    return lambda: call(problem, state, x_star, bank.gradients(x_star))


@pytest.mark.parametrize("call,message", [
    (lambda p, st, x, G: full_gradient(p, np.zeros(2)), "point has shape (2,), expected (3,)"),
    (lambda p, st, x, G: p.with_known_solution(np.zeros((3, 1))),
     "known_solution has shape (3, 1), expected (3,)"),
    (lambda p, st, x, G: lyapunov(st, p, np.zeros(2), G, 0.1, 1),
     "x_star has shape (2,), expected (3,)"),
    (lambda p, st, x, G: lyapunov(st, p, x, G[:, :2], 0.1, 1),
     "grad_star has shape (4, 2), expected (4, 3)"),
    (lambda p, st, x, G: consensus_dr_run(p, 0.1, x, np.zeros(3), 1),
     "g0 has shape (3,), expected (4, 3)"),
], ids=["check_point", "known_solution", "lyapunov-x_star", "lyapunov-grad_star", "consensus-g0"])
def test_shape_errors_name_the_array_and_both_shapes(call, message):
    # The numpy-integer dim prints as 3, as every message did before the
    # shape check had one home.
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        _shape_fault(call)()


@pytest.mark.parametrize("dtype", [complex, bool, object, str])
@pytest.mark.parametrize("call", [
    lambda p, x: run(p, SolverConfig(s=2, max_iters=2), x),
    lambda p, x: run_many(p, [SolverConfig(s=1), SolverConfig(s=2)], x),
    lambda p, x: full_gradient(p, x),
    lambda p, x: consensus_dr_run(p, 0.1, x, np.zeros((6, 3)), 1),
], ids=["run", "run_many", "full_gradient", "consensus_dr_run"])
def test_a_point_of_non_real_entries_raises_invalid_spec(call, dtype):
    # A complex x0 gave run complex dist_sq and lyapunov values; a bool or
    # object one numpy's TypeError.
    # The message is _check_array's, which names the array "point".
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=1))
    x = np.ones(3, dtype=dtype)
    message = f"point must hold integers or floats, got dtype {x.dtype}"
    with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
        call(problem, x)


@pytest.mark.parametrize("dtype,expected", [(np.int64, np.float64), (np.uint8, np.float64),
                                            (np.float32, np.float32), (np.float64, np.float64),
                                            (np.longdouble, np.longdouble)],
                         ids=["int64", "uint8", "float32", "float64", "longdouble"])
def test_a_point_of_integers_or_floats_is_accepted(dtype, expected):
    # A float point keeps its dtype (and is the array given where it is an
    # array); an integer point comes back as float64, so nothing computes
    # in integers.
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=1))
    given = np.ones(3, dtype=dtype)
    x = problem.check_point(given)
    assert x.dtype == expected and np.array_equal(x, given)
    assert (x is given) == (dtype is expected)
    assert np.isfinite(run(problem, SolverConfig(s=2, max_iters=2), x)[1][-1].lyapunov)


def test_known_solution_validated():
    comp = identity_quadratic(2)
    with pytest.raises(InvalidKnownSolution):
        FiniteSumProblem((comp,), 1.0, 1.0, 2, known_solution=np.array([1.0, 0.0]))
    # A NaN gradient total has a NaN norm, which no bound is greater than.
    problem = gen_quadratic(GeneratorSpec("quadratic", 5, 3, 1.0, 10.0))
    x = np.full(3, np.nan)
    with pytest.raises(InvalidKnownSolution, match="= nan exceeds"):
        problem.with_known_solution(x)
    with pytest.raises(InvalidKnownSolution, match="= nan exceeds"):
        FiniteSumProblem(problem.components, 1.0, 10.0, 3, known_solution=x)


def test_the_known_solution_is_a_read_only_copy():
    # The caller's array was kept as given: a write to it, or to
    # known_solution, moved x* away from its grad_star, and a later run
    # measured from a non-stationary point without an error.
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=1))
    config, x0 = SolverConfig(s=2, max_iters=3), np.ones(3)
    last = run(problem, config, x0)[1][-1]
    with pytest.raises(ValueError):
        problem.known_solution[0] += 1.0
    x_star = problem.known_solution.copy()
    solved = [FiniteSumProblem(problem.components, 1.0, 10.0, 3, known_solution=x_star),
              problem.with_known_solution(x_star), problem.with_known_solution(list(x_star))]
    for kept in (p.known_solution for p in solved):
        assert type(kept) is np.ndarray and not kept.flags.writeable and kept is not x_star
    x_star[0] += 1.0  # the caller's array stays writable, and no problem sees the write
    for p in solved:
        assert np.array_equal(p.known_solution, problem.known_solution)
        assert run(p, config, x0)[1][-1].dist_sq == last.dist_sq


def _solved_problem(kind, tmp_path):
    if kind == "quadratic":
        return gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=4))
    if kind == "ridge":
        return gen_ridge_regression(GeneratorSpec("ridge_regression", 6, 3, 1.0, 10.0, seed=4))
    if kind == "logistic":
        return gen_logistic_ridge(GeneratorSpec("logistic_ridge", 6, 3, 1.0, 10.0, seed=4))
    if kind == "libsvm":
        path = tmp_path / "data.svm"
        path.write_text("+1 1:0.5 2:-1\n-1 1:2 3:0.25\n+1 2:1.5\n-1 3:-0.75\n")
        _, loaded = load_libsvm(str(path), mu=0.5)
        return loaded.with_known_solution(reference_solution(loaded))
    # declared: the ridge minimizer handed to the constructor
    planted = _solved_problem("ridge", tmp_path)
    return FiniteSumProblem(planted.components, planted.mu, planted.L, planted.dim,
                            known_solution=planted.known_solution.copy())


@pytest.mark.parametrize("kind", ["quadratic", "ridge", "logistic", "libsvm", "declared"])
def test_grad_star_is_the_stack_of_component_gradients(kind, tmp_path):
    problem = _solved_problem(kind, tmp_path)
    x_star = problem.known_solution
    oracle = np.stack([c.gradient(x_star) for c in problem.components])
    G = problem.grad_star
    assert G.dtype == oracle.dtype and G.shape == (problem.n, problem.dim)
    assert np.array_equal(G, oracle) and np.array_equal(np.signbit(G), np.signbit(oracle))
    assert not G.flags.writeable
    with pytest.raises(ValueError):
        G[0, 0] = 1.0
    assert assemble_problem(problem.components, problem.mu, problem.L,
                            problem.dim).grad_star is None


def test_non_stationary_known_solution_keeps_its_message():
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=4))
    x = problem.known_solution + 1.0
    norm = float(np.linalg.norm(sum(c.gradient(x) for c in problem.components)))
    message = f"||sum grad f_i(x*)|| = {norm:.3e} exceeds n*{TOL_STAR:g}"
    with pytest.raises(InvalidKnownSolution, match=f"^{re.escape(message)}$"):
        problem.with_known_solution(x)
    with pytest.raises(InvalidKnownSolution, match=f"^{re.escape(message)}$"):
        FiniteSumProblem(problem.components, 1.0, 10.0, 3, known_solution=x)


def test_problem_rejects_bad_dim_and_solution_shape():
    comp = identity_quadratic(2)
    with pytest.raises(InvalidConstants, match="dim must be >= 1"):
        FiniteSumProblem((comp,), 1.0, 1.0, 0)
    with pytest.raises(DimensionMismatch, match=r"known_solution has shape \(3,\)"):
        FiniteSumProblem((comp,), 1.0, 1.0, 2, known_solution=np.zeros(3))


def test_full_gradient_permutation_invariant():
    # Removing a component and re-adding it (any reorder) leaves the sum alone.
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=5))
    comps = list(problem.components)
    reordered = assemble_problem(comps[1:] + comps[:1], 1.0, 10.0, 3)
    x = np.array([0.3, -1.2, 2.5])
    assert np.allclose(
        full_gradient(problem, x), full_gradient(reordered, x), rtol=0, atol=1e-12
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_quadratic(GeneratorSpec("quadratic", 4, 3, 1.0, 10.0, seed=2)),
        lambda: gen_ridge_regression(
            GeneratorSpec("ridge_regression", 4, 3, 1.0, 10.0, seed=2)
        ),
        lambda: gen_logistic_ridge(
            GeneratorSpec("logistic_ridge", 4, 3, 1.0, 10.0, seed=2)
        ),
    ],
    ids=["quadratic", "ridge", "logistic"],
)
def test_component_oracle_inequalities(make):
    # Strong convexity and smoothness of every component on random pairs.
    problem = make()
    rng = np.random.default_rng(9)
    for comp in problem.components:
        for _ in range(200):
            x = rng.normal(size=3) * 2
            y = rng.normal(size=3) * 2
            dg = comp.gradient(x) - comp.gradient(y)
            dx = x - y
            inner = dg @ dx
            nx = dx @ dx
            assert inner >= problem.mu * nx - 1e-10 * (1 + nx)
            assert dg @ dg <= problem.L**2 * nx * (1 + 1e-10) + 1e-10


# --- ComponentBank ------------------------------------------------------------------


def bank_problem(kind):
    """A 7-component, 3-dimensional problem."""
    ridge = gen_ridge_regression(GeneratorSpec("ridge_regression", 7, 3, 0.5, 4.0, seed=2))
    if kind == "ridge":
        return ridge
    logistic = gen_logistic_ridge(GeneratorSpec("logistic_ridge", 7, 3, 0.5, 4.0, seed=3))
    if kind == "logistic":
        return logistic
    if kind == "generic":
        comps = [GenericComponent(c.gradient, 0.5, 4.0) for c in ridge.components]
    else:
        comps = [ridge.components[0], logistic.components[1], identity_quadratic(3),
                 GenericComponent(ridge.components[3].gradient, 0.5, 4.0),
                 *ridge.components[4:6], logistic.components[6]]
    return assemble_problem(comps, 0.5, 4.0, 3)


def test_gradient_sum_starts_from_positive_zero():
    # A loop from +0.0 turns a lone -0.0 gradient into +0.0; so must the bank.
    comp = GenericComponent(lambda x: x.copy(), 1.0, 1.0)
    total = _row_total(ComponentBank([comp]).gradients(np.array([-0.0, 1.0])))
    assert not np.signbit(total[0]) and total[1] == 1.0
    # The kept table is the gradients themselves: its -0.0 stays.
    problem = FiniteSumProblem((comp,), 1.0, 1.0, 2, known_solution=np.array([-0.0, 0.0]))
    assert np.signbit(problem.grad_star[0, 0]) and not np.signbit(problem.grad_star[0, 1])


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble, np.float32])
def test_sums_over_one_entry_rows_keep_index_order(dtype):
    # Over a stack of one-entry rows numpy's reduction sums pairwise, which
    # rounds differently from n = 16 on; the sums must stay the loop over i.
    rng = np.random.default_rng(6)
    eig, c = rng.uniform(1.0, 10.0, 300), rng.normal(size=300)
    bank = QuadraticBank(np.ones((300, 1, 1), dtype), eig[:, None].astype(dtype),
                         c[:, None].astype(dtype))
    problem = assemble_problem(bank, 1.0, 10.0, 1)
    comps = list(problem.components)
    x = np.array([0.7], dtype)
    total, hessian = np.zeros(1, dtype), np.zeros((1, 1), dtype)
    for comp in comps:
        total = total + comp.gradient(x)
        hessian = hessian + comp.A
    assert np.array_equal(_row_total(problem.bank.gradients(x)), total)
    assert np.array_equal(full_gradient(problem, x), total)
    assert np.array_equal(_row_total(ComponentBank(comps).gradients(x)), total)
    assert np.array_equal(problem.bank.hessian_sum(x), hessian)
    assert np.array_equal(ComponentBank(comps).hessian_sum(x), hessian)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("kind", ["ridge", "logistic", "generic", "mixed"])
def test_component_bank_matches_per_component_calls(kind, dtype):
    problem = bank_problem(kind)
    bank = ComponentBank(problem.components)
    rng = np.random.default_rng(4)
    x = (rng.normal(size=3) * 3.0).astype(dtype)
    G = bank.gradients(x)
    assert G.shape == (7, 3)
    total = np.zeros_like(x)
    for i, comp in enumerate(problem.components):
        assert np.array_equal(G[i], comp.gradient(x))
        total = total + comp.gradient(x)
    assert np.array_equal(_row_total(bank.gradients(x)), total)
    for gamma in (0.05, 2.0):
        for s in (1, 4, 7):
            idx = np.sort(rng.choice(7, size=s, replace=False))
            Z = (rng.normal(size=(s, 3)) * 5.0).astype(dtype)
            P, residuals = bank.prox(gamma, idx, Z)
            assert P.dtype == dtype and residuals.shape == (s,)
            for k, i in enumerate(idx):
                one = problem.components[i].prox(gamma, Z[k])
                assert np.array_equal(P[k], one.point)
                assert residuals[k] == one.residual
