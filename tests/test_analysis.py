import itertools

import numpy as np
import pytest

from pointsaga import (
    FiniteSumProblem,
    GeneratorSpec,
    GenericComponent,
    LogisticRidgeComponent,
    LyapunovWeights,
    QuadraticComponent,
    RankOneRidgeComponent,
    SolverConfig,
    SolverState,
    apply_subset_step,
    check_coercivity,
    consensus_dr_run,
    defazio_rate,
    dr_rate,
    full_gradient,
    gen_logistic_ridge,
    gen_quadratic,
    gen_ridge_regression,
    initialize,
    iteration_complexity,
    lyapunov,
    optimal_stepsize,
    reference_solution,
    theoretical_rate,
    verify_one_step_contraction,
)
from pointsaga import analysis
from pointsaga.errors import (
    DimensionMismatch,
    EnumerationTooLarge,
    EpsNotBelowPsi0,
    InvalidBatchSize,
    InvalidConstants,
    InvalidSpec,
    MaxInnerIterations,
    MaxIterations,
    ProxFailure,
)
from pointsaga.problems import NEWTON_BATCH_MIN
from pointsaga.sampling import SplitMix64
from pointsaga.solver import step


def one_dim_problem():
    comp = QuadraticComponent(np.eye(1), np.ones(1), np.zeros(1))
    return FiniteSumProblem((comp,), 1.0, 1.0, 1, known_solution=np.zeros(1))


# --- rate formulas ---------------------------------------------------------------


def test_rate_balanced_unit_case():
    r = theoretical_rate(1.0, 1, 1, 1.0, 1.0)
    assert r.rho_prox == 0.5
    assert r.rho_sample == 0.5
    assert r.rho == 0.5
    assert r.rho_defazio == 0.5  # s=1
    assert r.rho_dr == 0.5  # s=n


def test_rate_hand_fractions():
    # gamma=0.1, s=1, n=10, mu=1, L=10:
    #   rho_prox = 1 - 2/13 = 11/13; rho_sample = 1 - (2/3.1)/10 = 29/31.
    r = theoretical_rate(0.1, 1, 10, 1.0, 10.0)
    assert abs(r.rho_prox - 11 / 13) <= 1e-15
    assert abs(r.rho_sample - 29 / 31) <= 1e-15
    assert r.rho == r.rho_sample


def test_rate_monotonic_in_gamma():
    gammas = np.logspace(-3, 3, 25)
    prox_terms = [theoretical_rate(g, 2, 5, 1.0, 10.0).rho_prox for g in gammas]
    sample_terms = [theoretical_rate(g, 2, 5, 1.0, 10.0).rho_sample for g in gammas]
    assert all(a > b for a, b in zip(prox_terms, prox_terms[1:]))
    assert all(a < b for a, b in zip(sample_terms, sample_terms[1:]))
    assert all(0 < theoretical_rate(g, 2, 5, 1.0, 10.0).rho < 1 for g in gammas)


def test_rate_validates_constants():
    with pytest.raises(InvalidConstants):
        theoretical_rate(1.0, 1, 1, 2.0, 1.0)
    with pytest.raises(InvalidConstants):
        theoretical_rate(-1.0, 1, 1, 1.0, 1.0)
    with pytest.raises(InvalidConstants, match="overflows"):  # was a NaN rho
        theoretical_rate(1e300, 1, 1, 1e300, 1e300)
    # Sizes are the samplers' sizes, and raise their error. Sizes that are not
    # integers were once read as numbers: a fractional s gave a rate, and a
    # NaN n passed n >= 1 (False for NaN), giving 0.909.
    with pytest.raises(InvalidBatchSize):
        theoretical_rate(1.0, 2, 1, 1.0, 1.0)
    with pytest.raises(InvalidBatchSize):
        theoretical_rate(0.1, 1.5, 10, 1.0, 10.0)
    with pytest.raises(InvalidBatchSize):
        defazio_rate(0.1, float("nan"), 1.0, 10.0)
    with pytest.raises(InvalidBatchSize):
        optimal_stepsize(1, 10.0, 1.0, 10.0)


def test_optimal_stepsize_values():
    assert optimal_stepsize(1, 100, 1.0, 100.0) == 0.01
    assert optimal_stepsize(7, 7, 1.0, 1.0) == 1.0
    # Doubling both constants halves the stepsize.
    g1 = optimal_stepsize(3, 20, 1.0, 10.0)
    g2 = optimal_stepsize(3, 20, 2.0, 20.0)
    assert abs(g2 - g1 / 2) <= 1e-15


@pytest.mark.parametrize("mu,n", [(5e-324, 50), (1e-160, 1)], ids=["product-0", "ratio-inf"])
def test_optimal_stepsize_rejects_overflow(mu, n):
    with pytest.raises(InvalidConstants, match="overflows"):
        optimal_stepsize(1, n, mu, mu)



def test_rho_below_one_at_optimal_stepsize():
    for s, n, mu, L in [(1, 10, 1.0, 10.0), (5, 50, 0.5, 100.0), (8, 8, 2.0, 2.0)]:
        gamma = optimal_stepsize(s, n, mu, L)
        assert 0 < theoretical_rate(gamma, s, n, mu, L).rho < 1


def test_iteration_complexity_values():
    # rho = 0.5 and psi0/eps = e gives exactly 2 iterations.
    assert abs(iteration_complexity(1.0, 1, 1, 1.0, 1.0, np.e, 1.0) - 2.0) <= 1e-14
    assert iteration_complexity(1.0, 1, 1, 1.0, 1.0, 5.0, 5.0) == 0.0
    one = iteration_complexity(0.1, 2, 10, 1.0, 10.0, 1e4, 1e-4)
    two = iteration_complexity(0.1, 2, 10, 1.0, 10.0, 1e8, 1e-8)
    assert abs(two - 2 * one) <= 1e-9 * two


def test_iteration_complexity_rejects_bad_eps():
    with pytest.raises(EpsNotBelowPsi0):
        iteration_complexity(1.0, 1, 1, 1.0, 1.0, 1.0, 2.0)
    with pytest.raises(EpsNotBelowPsi0):
        iteration_complexity(1.0, 1, 1, 1.0, 1.0, 1.0, 0.0)
    # Each of these returned NaN or inf.
    for psi0, eps in [(float("nan"), 1.0), (float("inf"), float("inf")), (float("inf"), 1.0)]:
        with pytest.raises(EpsNotBelowPsi0):
            iteration_complexity(0.1, 1, 10, 1.0, 10.0, psi0, eps)


def test_defazio_rate_values():
    assert defazio_rate(0.1, 10, 1.0, 10.0) == 0.95
    # s=1 comparison at the same constants.
    assert theoretical_rate(0.1, 1, 10, 1.0, 10.0).rho <= 0.95
    for gamma in (1e-6, 1e-3):
        assert defazio_rate(gamma, 10, 1.0, 10.0) > 0.99


def test_dr_rate_values():
    assert dr_rate(1.0, 1.0, 1.0) == 0.5
    # The two terms balance at gamma = 1/sqrt(mu L).
    mu, L = 1.0, 10.0
    g = 1.0 / np.sqrt(mu * L)
    assert abs(1 / (1 + g * mu) - (1 - 1 / (g * L + 1))) <= 1e-14


def test_rate_dominance_on_grids():
    gammas = np.logspace(-3, 2, 10)
    kappas = np.logspace(0, 4, 10)
    ns = np.unique(np.round(np.logspace(0, 3, 10)).astype(int))
    for gamma in gammas:
        for kappa in kappas:
            L = float(kappa)
            for n in ns:
                n = int(n)
                assert theoretical_rate(gamma, 1, n, 1.0, L).rho <= defazio_rate(
                    gamma, n, 1.0, L
                ) + 1e-12
                assert theoretical_rate(gamma, n, n, 1.0, L).rho <= dr_rate(
                    gamma, 1.0, L
                ) + 1e-12


# --- Lyapunov --------------------------------------------------------------------


def test_lyapunov_zero_at_fixed_point():
    problem = gen_quadratic(GeneratorSpec("quadratic", 4, 3, 1.0, 10.0, seed=3))
    x_star = problem.known_solution
    grad_star = np.stack([c.gradient(x_star) for c in problem.components])
    state = SolverState(0, x_star.copy(), grad_star.copy(), grad_star.mean(axis=0))
    assert lyapunov(state, problem, x_star, grad_star, 0.3, 2) == 0.0


def test_lyapunov_hand_value():
    # Unit 1-D case: w_x = w_g = 2, so Psi(x=2, g=0) = 2*4 = 8.
    problem = one_dim_problem()
    w = LyapunovWeights.from_constants(1.0, 1, 1.0, 1.0)
    assert (w.w_x, w.w_g) == (2.0, 2.0)
    state = SolverState(0, np.array([2.0]), np.zeros((1, 1)), np.zeros(1))
    psi = lyapunov(state, problem, np.zeros(1), np.zeros((1, 1)), 1.0, 1)
    assert psi == 8.0


def test_lyapunov_quadratic_scaling():
    problem = gen_quadratic(GeneratorSpec("quadratic", 4, 3, 1.0, 10.0, seed=3))
    x_star = problem.known_solution
    grad_star = np.stack([c.gradient(x_star) for c in problem.components])
    rng = np.random.default_rng(0)
    dx = rng.normal(size=3)
    dg = rng.normal(size=(4, 3))
    s1 = SolverState(0, x_star + dx, grad_star + dg, np.zeros(3))
    s3 = SolverState(0, x_star + 3 * dx, grad_star + 3 * dg, np.zeros(3))
    p1 = lyapunov(s1, problem, x_star, grad_star, 0.2, 2)
    p3 = lyapunov(s3, problem, x_star, grad_star, 0.2, 2)
    assert abs(p3 - 9 * p1) <= 1e-9 * p3


@pytest.mark.parametrize("block_entries", [1, 7, 30])
def test_row_errors_over_blocks_are_the_rowwise_dots(monkeypatch, block_entries):
    # 1 and 7 entries are one and two rows of d = 3 a block, 30 ten rows
    # with a short last block; each row's error is its own 1-d dot.
    rng = np.random.default_rng(1)
    for dtype in (np.float64, np.longdouble):
        table, grad_star = (rng.normal(size=(2, 23, 3)) * 4.0).astype(dtype)
        whole = analysis._row_errors(table, grad_star)
        monkeypatch.setattr(analysis, "ROW_BLOCK_ENTRIES", block_entries)
        blocked = analysis._row_errors(table, grad_star)
        monkeypatch.undo()
        assert blocked.dtype == dtype and blocked.shape == (23,)
        assert np.array_equal(blocked, whole)
        assert all(blocked[i] == (table[i] - grad_star[i]) @ (table[i] - grad_star[i])
                   for i in range(23))


def test_lyapunov_dimension_checks():
    problem = one_dim_problem()
    state = SolverState(0, np.zeros(1), np.zeros((1, 1)), np.zeros(1))
    with pytest.raises(DimensionMismatch):
        lyapunov(state, problem, np.zeros(2), np.zeros((1, 1)), 1.0, 1)
    with pytest.raises(DimensionMismatch):
        lyapunov(state, problem, np.zeros(1), np.zeros((2, 1)), 1.0, 1)


@pytest.mark.parametrize("s", [0, 11, 2.5, -3])
def test_lyapunov_rejects_a_batch_size_the_problem_cannot_take(s):
    # s scales w_x alone, so an unchecked one gives a Psi, negative at s = -3.
    problem = gen_quadratic(GeneratorSpec("quadratic", 10, 3, 1.0, 10.0, seed=1))
    x_star, grad_star = problem.known_solution, problem.grad_star
    table = grad_star + 1.0
    state = SolverState(0, x_star + 1.0, table, table.mean(axis=0))
    with pytest.raises(InvalidBatchSize):
        lyapunov(state, problem, x_star, grad_star, 0.1, s)
    assert lyapunov(state, problem, x_star, grad_star, 0.1, 10) > 0


@pytest.mark.parametrize("gamma,mu,L", [(1e300, 1.0, 10.0), (1e150, 1e200, 1e200)])
def test_lyapunov_weights_reject_overflow(gamma, mu, L):
    # The first overflows gamma**2 in w_g, the second gamma*mu*L in w_x.
    with pytest.raises(InvalidConstants):
        LyapunovWeights.from_constants(gamma, 1, mu, L)


# --- reference solutions -----------------------------------------------------------


def test_reference_solution_trivial():
    problem = one_dim_problem()
    x = reference_solution(problem)
    assert abs(x[0]) <= 1e-14
    assert abs(problem.components[0].gradient(x)[0]) <= 1e-14


def test_reference_solution_recovers_planted_minimizer():
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 4, 1.0, 10.0, seed=8))
    x = reference_solution(problem)
    assert np.linalg.norm(x - problem.known_solution) <= 1e-10


def test_reference_solution_logistic_self_certifying():
    problem = gen_logistic_ridge(GeneratorSpec("logistic_ridge", 4, 2, 1.0, 5.0, seed=4))
    bare = FiniteSumProblem(problem.components, problem.mu, problem.L, problem.dim)
    x = reference_solution(bare, tol=1e-10)
    assert np.linalg.norm(full_gradient(bare, x)) <= 1e-10


def test_reference_solution_rejects_overflowing_condition_number():
    # L/mu = inf would make the descent budget int(inf); raise before that.
    comps = (LogisticRidgeComponent(np.array([1.0, 0.5]), 1.0, 1e-310),)
    bare = FiniteSumProblem(comps, 1e-310, 1.0, 2)
    with pytest.raises(InvalidConstants):
        reference_solution(bare)


def test_reference_solution_solves_a_huge_declared_condition_number(monkeypatch):
    # L/mu = 2e300 is finite. Newton's cost follows the curvature it meets,
    # not the declared L, so this bare problem is solved to tol in few passes.
    comps = tuple(LogisticRidgeComponent(np.array([1.0, k]), 1.0, 0.5) for k in range(3))
    bare = FiniteSumProblem(comps, 0.5, 1e300, 2)
    real = analysis.full_gradient
    calls = []

    def counted(problem, x):
        calls.append(x)
        return real(problem, x)

    monkeypatch.setattr(analysis, "full_gradient", counted)
    x = reference_solution(bare)
    assert np.linalg.norm(full_gradient(bare, x)) <= 1e-12
    assert len(calls) <= 20


def test_reference_solution_raises_after_its_newton_steps(monkeypatch):
    problem = gen_logistic_ridge(GeneratorSpec("logistic_ridge", 4, 2, 1.0, 5.0, seed=4))
    bare = FiniteSumProblem(problem.components, problem.mu, problem.L, problem.dim)
    monkeypatch.setattr(analysis, "NEWTON_STEPS", 1)
    with pytest.raises(MaxIterations, match="after 1 Newton steps"):
        reference_solution(bare)


def test_reference_solution_needs_a_bank_with_a_hessian():
    # A GenericComponent problem has the default bank, which has no Hessian.
    comp = GenericComponent(lambda x: x, 1.0, 1.0)
    bare = FiniteSumProblem((comp, comp), 1.0, 1.0, 2)
    with pytest.raises(InvalidSpec, match="GenericComponent"):
        reference_solution(bare)


def test_reference_solution_blames_mu_and_l_for_an_overflowing_hessian():
    # Each a a' has entries 1e308, so the Hessian sum of three overflows.
    comps = tuple(RankOneRidgeComponent(np.array([1e154, 1e154]), 1.0, 1.0) for _ in range(3))
    bare = FiniteSumProblem(comps, 1.0, 1e308, 2)
    with pytest.raises(InvalidConstants, match=r"mu=1, L=1e\+308"):
        reference_solution(bare)


# --- one-step contraction -----------------------------------------------------------


def test_contraction_at_fixed_point():
    problem = gen_quadratic(GeneratorSpec("quadratic", 5, 3, 1.0, 10.0, seed=2))
    x_star = problem.known_solution
    grad_star = np.stack([c.gradient(x_star) for c in problem.components])
    state = SolverState(0, x_star.copy(), grad_star.copy(), grad_star.mean(axis=0))
    lhs, rhs, ok = verify_one_step_contraction(state, problem, 0.3, 2, x_star, grad_star)
    assert ok
    assert lhs <= 1e-18


def test_contraction_tight_on_unit_case():
    # From (x=2, g=0) one step lands exactly on rho * Psi: lhs = rhs = 4.
    problem = one_dim_problem()
    state = SolverState(0, np.array([2.0]), np.zeros((1, 1)), np.zeros(1))
    lhs, rhs, ok = verify_one_step_contraction(
        state, problem, 1.0, 1, np.zeros(1), np.zeros((1, 1))
    )
    assert ok
    assert abs(lhs - rhs) <= 1e-12
    assert abs(lhs - 4.0) <= 1e-12


def test_contraction_at_every_visited_state():
    # The inequality must hold along actual trajectories, not just at
    # synthetic states.
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=22))
    x_star = problem.known_solution
    grad_star = np.stack([c.gradient(x_star) for c in problem.components])
    gamma = optimal_stepsize(2, 6, 1.0, 10.0)
    cfg = SolverConfig(s=2, gamma=gamma, max_iters=25, seed=5)
    state = initialize(problem, cfg, np.array([2.0, -1.0, 0.5]))
    rng = SplitMix64(cfg.seed)
    for _ in range(25):
        _, _, ok = verify_one_step_contraction(
            state, problem, gamma, 2, x_star, grad_star
        )
        assert ok
        state = step(state, problem, cfg, rng, gamma=gamma)


def test_contraction_random_states_all_batch_sizes():
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=21))
    x_star = problem.known_solution
    grad_star = np.stack([c.gradient(x_star) for c in problem.components])
    rng = np.random.default_rng(17)
    for s in (1, 2, 3, 6):
        gamma0 = optimal_stepsize(s, 6, 1.0, 10.0)
        for gamma in (0.1 * gamma0, gamma0, 10 * gamma0):
            for _ in range(20):
                table = rng.normal(size=(6, 3)) * 2
                state = SolverState(0, rng.normal(size=3) * 2, table, table.mean(axis=0))
                lhs, rhs, ok = verify_one_step_contraction(
                    state, problem, gamma, s, x_star, grad_star
                )
                assert ok, (s, gamma, lhs, rhs)


def enumerated_certificate(state, problem, gamma, s, x_star, grad_star):
    """The certificate as one iteration per subset, each scored by psi: the
    exact average the verifier must return bitwise."""
    rho = theoretical_rate(gamma, s, problem.n, problem.mu, problem.L).rho
    rhs = rho * lyapunov(state, problem, x_star, grad_star, gamma, s)
    w = LyapunovWeights.from_constants(gamma, s, problem.mu, problem.L)
    subsets = list(itertools.combinations(range(problem.n), s))
    total = 0.0
    for sub in subsets:
        nxt = apply_subset_step(state, problem, gamma, np.asarray(sub, dtype=int))
        total += w.psi(nxt, x_star, grad_star)
    lhs = total / len(subsets)
    return lhs, rhs, bool(lhs <= rhs + 1e-9 * (1.0 + rhs))


_GENERATORS = {"quadratic": gen_quadratic, "ridge_regression": gen_ridge_regression,
               "logistic_ridge": gen_logistic_ridge}


@pytest.mark.parametrize("family,n,d,mu,L,dtype", [
    ("quadratic", 12, 4, 1.0, 10.0, np.float64),
    ("quadratic", 12, 4, 1.0, 10.0, np.longdouble),
    ("quadratic", 6, 3, 1.0, 10.0, np.longdouble),
    ("quadratic", 10, 5, 1.0, 10.0, np.float64),
    ("quadratic", 10, 5, 1.0, 10.0, np.longdouble),
    ("quadratic", 9, 1, 2.0, 2.0, np.float64),
    ("ridge_regression", 10, 4, 0.5, 10.0, np.float64),
    # n = 10 proxes at once take the batched Newton; subsets below
    # NEWTON_BATCH_MIN took the per-component solve.
    ("logistic_ridge", 10, 4, 0.5, 5.0, np.float64),
], ids=["quad12-f64", "quad12-ld", "quad6-ld", "quad10-f64", "quad10-ld", "quad-d1",
        "ridge", "logistic"])
def test_contraction_equals_the_enumerated_iterations(family, n, d, mu, L, dtype):
    problem = _GENERATORS[family](GeneratorSpec(family, n, d, mu, L, seed=n + d))
    x_star = problem.known_solution
    grad_star = problem.bank.gradients(x_star)
    rng = np.random.default_rng(n * d)
    for s in sorted({1, 2, 3, n // 2, n}):
        g_star = optimal_stepsize(s, n, mu, L)
        for gamma in (0.1 * g_star, g_star, 10 * g_star):
            table = (rng.normal(size=(n, d)) * 2).astype(dtype)
            state = SolverState(4, (rng.normal(size=d) * 2).astype(dtype), table,
                                table.mean(axis=0))
            before = (state.x.copy(), state.grad_table.copy(), state.g_avg.copy())
            got = verify_one_step_contraction(state, problem, gamma, s, x_star, grad_star)
            assert got == enumerated_certificate(state, problem, gamma, s, x_star, grad_star)
            assert type(got[0]) is type(got[1]) is np.dtype(dtype).type
            for kept, now in zip(before, (state.x, state.grad_table, state.g_avg)):
                assert np.array_equal(kept, now)
            assert state.t == 4


def test_contraction_sums_in_the_state_dtype():
    # A float32 state and solution keep every Psi and their running sum in
    # float32, as one iteration per subset does.
    problem = gen_quadratic(GeneratorSpec("quadratic", 8, 3, 1.0, 10.0, seed=5))
    x_star = problem.known_solution.astype(np.float32)
    grad_star = problem.bank.gradients(problem.known_solution).astype(np.float32)
    rng = np.random.default_rng(3)
    table = rng.normal(size=(8, 3)).astype(np.float32)
    state = SolverState(0, rng.normal(size=3).astype(np.float32), table, table.mean(axis=0))
    for s in (1, 3, 8):
        got = verify_one_step_contraction(state, problem, 0.2, s, x_star, grad_star)
        assert got == enumerated_certificate(state, problem, 0.2, s, x_star, grad_star)
        assert type(got[0]) is np.float32


def _counted_prox(monkeypatch, problem, add=None, raise_at=None):
    """Record the rows of each bank.prox call; optionally add residuals to
    some 0-based rows, or raise MaxInnerIterations for a call holding one."""
    prox = problem.bank.prox
    calls = []

    def counted(gamma, idx, Z):
        calls.append(idx.tolist())
        if raise_at is not None and raise_at in idx:
            raise MaxInnerIterations("injected")
        P, residuals = prox(gamma, idx, Z)
        for row, extra in (add or {}).items():
            residuals = residuals + np.where(idx == row, extra, 0.0)
        return P, residuals

    monkeypatch.setattr(problem.bank, "prox", counted)
    return calls


def random_state(problem, t=0, seed=0):
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(problem.n, problem.dim))
    return SolverState(t, rng.normal(size=problem.dim), table, table.mean(axis=0))


@pytest.mark.parametrize("s", [1, 3, 6])
def test_contraction_makes_one_prox_call_of_n_rows(monkeypatch, s):
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=21))
    calls = _counted_prox(monkeypatch, problem)
    x_star = problem.known_solution
    verify_one_step_contraction(random_state(problem), problem, 0.3, s, x_star,
                                problem.bank.gradients(x_star))
    assert calls == [list(range(6))]


def test_contraction_names_the_lowest_failing_component(monkeypatch):
    # Components 3 and 5 fail their residual checks. The first enumerated
    # subset holding either, (1, 3), reaches 3 first; so does the n-row pass.
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=21))
    _counted_prox(monkeypatch, problem, add={2: 1.0, 4: 2.0})
    x_star = problem.known_solution
    args = (random_state(problem, t=7), problem, 0.3, 2, x_star,
            problem.bank.gradients(x_star))
    with pytest.raises(ProxFailure) as err:
        verify_one_step_contraction(*args)
    with pytest.raises(ProxFailure) as enumerated:
        enumerated_certificate(*args)
    failure = (err.value.index, err.value.residual, err.value.t, err.value.gamma)
    assert failure[0] == 3 and failure[2:] == (8, 0.3)
    assert failure == (enumerated.value.index, enumerated.value.residual,
                       enumerated.value.t, enumerated.value.gamma)


def test_contraction_lets_a_bank_error_win_over_a_residual_failure(monkeypatch):
    # Component 3 fails its residual check and component 5's prox runs out of
    # inner iterations. All n rows are proxed at once, so the bank's error
    # comes first, where one iteration per subset met component 3 first.
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=21))
    _counted_prox(monkeypatch, problem, add={2: 1.0}, raise_at=4)
    x_star = problem.known_solution
    with pytest.raises(MaxInnerIterations):
        verify_one_step_contraction(random_state(problem), problem, 0.3, 2, x_star,
                                    problem.bank.gradients(x_star))


@pytest.mark.parametrize("n,s,error", [
    (30, 15, EnumerationTooLarge),  # C(30, 15) is about 155 * ENUMERATION_CAP
    (6, 2.0, InvalidBatchSize),
], ids=["past-cap", "non-integral"])
def test_contraction_checks_the_subsets_before_any_prox(monkeypatch, n, s, error):
    problem = gen_quadratic(GeneratorSpec("quadratic", n, 2, 1.0, 10.0, seed=1))
    calls = _counted_prox(monkeypatch, problem)
    x_star = problem.known_solution
    with pytest.raises(error):
        verify_one_step_contraction(random_state(problem), problem, 0.3, s, x_star,
                                    problem.bank.gradients(x_star))
    assert calls == []


# --- coercivity ----------------------------------------------------------------------


def test_coercivity_identity_quadratic_equality():
    comp = QuadraticComponent(np.eye(2), np.ones(2), np.zeros(2))
    rng = np.random.default_rng(5)
    for _ in range(20):
        assert check_coercivity(comp, rng.normal(size=2), rng.normal(size=2), 1.0, 1.0)


def test_coercivity_rejects_mismatched_shapes():
    comp = QuadraticComponent(np.eye(2), np.ones(2), np.zeros(2))
    # y is admitted at x's shape, by the message every array's shape check gives.
    with pytest.raises(DimensionMismatch, match=r"^y has shape \(3,\), expected \(2,\)$"):
        check_coercivity(comp, np.zeros(2), np.zeros(3), 1.0, 1.0)


def test_coercivity_same_point():
    comp = QuadraticComponent(np.eye(2), np.ones(2), np.zeros(2))
    x = np.array([1.0, -2.0])
    assert check_coercivity(comp, x, x, 1.0, 1.0)


@pytest.mark.parametrize("mu,L", [(-1.0, 1.0), (float("nan"), 10.0), (10.0, 1.0)])
def test_coercivity_checks_its_constants(mu, L):
    # (-1, 1) raised ZeroDivisionError, (nan, 10) returned False and (10, 1) True.
    comp = QuadraticComponent(np.eye(2), np.ones(2), np.zeros(2))
    with pytest.raises(InvalidConstants, match="need finite 0 < mu <= L"):
        check_coercivity(comp, np.zeros(2), np.ones(2), mu, L)


def test_coercivity_generated_components():
    problem = gen_quadratic(GeneratorSpec("quadratic", 4, 3, 1.0, 10.0, seed=6))
    rng = np.random.default_rng(7)
    for comp in problem.components:
        for _ in range(250):
            x = rng.normal(size=3) * 3
            y = rng.normal(size=3) * 3
            assert check_coercivity(comp, x, y, 1.0, 10.0)


# --- consensus splitting equivalence ---------------------------------------------------


def test_full_batch_matches_consensus_splitting():
    problem = gen_quadratic(GeneratorSpec("quadratic", 10, 4, 1.0, 10.0, seed=31))
    gamma = 1.0 / np.sqrt(10.0)
    x0 = np.arange(1.0, 5.0)
    cfg = SolverConfig(s=10, gamma=gamma, max_iters=100, seed=0)
    state = initialize(problem, cfg, x0)
    reference = consensus_dr_run(problem, gamma, x0, state.grad_table, 100)
    rng = SplitMix64(0)
    for t in range(100):
        state = step(state, problem, cfg, rng, gamma=gamma)
        assert np.linalg.norm(state.x - reference[t + 1]) <= 1e-10


def per_component_consensus(problem, gamma, x0, g0, iters):
    """consensus_dr_run's splitting iteration with one component prox at a
    time: the trajectory its one bank call per iteration must give bitwise."""
    u = x0[None, :] + gamma * (g0 - g0.mean(axis=0)[None, :])
    out = [x0.copy()]
    w = np.empty_like(u)
    for _ in range(iters):
        for i in range(problem.n):
            w[i] = problem.components[i].prox(gamma, u[i]).point
        v = (2.0 * w - u).mean(axis=0)
        u = u + v[None, :] - w
        out.append(w.mean(axis=0))
    return np.array(out)


@pytest.mark.parametrize("family,dtype", [
    ("quadratic", np.float64), ("quadratic", np.longdouble),
    ("ridge_regression", np.float64), ("logistic_ridge", np.float64),
], ids=["quad-f64", "quad-ld", "ridge", "logistic"])
def test_consensus_makes_one_bank_prox_call_per_iteration(family, dtype, monkeypatch):
    n, d, iters = 12, 4, 200
    assert n >= NEWTON_BATCH_MIN  # the logistic bank proxes all n rows in one Newton
    problem = _GENERATORS[family](GeneratorSpec(family, n, d, 0.5, 5.0, seed=3))
    gamma = optimal_stepsize(n, n, problem.mu, problem.L)
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=d).astype(dtype)
    g0 = problem.bank.gradients(x0) + rng.normal(size=(n, d)).astype(dtype)
    reference = per_component_consensus(problem, gamma, x0, g0, iters)
    calls = []
    bank_cls = type(problem.bank)
    monkeypatch.setattr(bank_cls, "prox",
                        lambda self, *args, f=bank_cls.prox: calls.append(1) or f(self, *args))
    got = consensus_dr_run(problem, gamma, x0, g0, iters)
    assert len(calls) == iters
    assert got.dtype == reference.dtype == dtype
    assert np.array_equal(got, reference)


def test_consensus_checks_gamma_and_g0_before_any_prox(monkeypatch):
    # A bad gamma gave an all-NaN trajectory, a short g0 numpy's
    # broadcasting error and a complex g0 numpy's ComplexWarning; all now
    # raise typed errors before any prox.
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=1))
    x0, g0 = np.ones(3), problem.bank.gradients(np.ones(3))
    calls = []
    monkeypatch.setattr(type(problem.bank), "prox", lambda *args: calls.append(1))
    for gamma in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(InvalidConstants, match="gamma"):
            consensus_dr_run(problem, gamma, x0, g0, 5)
    for shape in ((5, 3), (6, 2), (3,), (6, 3, 1)):
        with pytest.raises(DimensionMismatch, match=r"expected \(6, 3\)"):
            consensus_dr_run(problem, 0.5, x0, np.zeros(shape), 5)
    for dtype in (complex, bool, object, str):
        with pytest.raises(InvalidSpec, match="g0 must hold integers or floats"):
            consensus_dr_run(problem, 0.5, x0, np.ones((6, 3), dtype=dtype), 5)
    assert calls == []


@pytest.mark.parametrize("iters", [1.5, -1, "3", None])
def test_consensus_refuses_an_iteration_count_that_is_not_a_count(iters):
    # 1.5 raised Python's TypeError from range, and -1 ran no iteration.
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=1))
    g0 = problem.bank.gradients(np.ones(3))
    with pytest.raises(InvalidConstants, match="iters must be an integer >= 0"):
        consensus_dr_run(problem, 0.5, np.ones(3), g0, iters)
    assert len(consensus_dr_run(problem, 0.5, np.ones(3), g0, np.int64(2))) == 3


def test_numpy_float_constants_compute_as_python_floats():
    # errors._check_constants returns mu, L and gamma as Python floats, and
    # the rates, the weights and the certificate compute on them: a float32
    # constant gave float32 rates, weights 6.6e-8 off and a balanced
    # stepsize rounded in float32.
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=1))
    g = float(np.float32(optimal_stepsize(2, 6, 1.0, 10.0)))
    rng = np.random.default_rng(0)
    state = SolverState(0, rng.normal(size=3), rng.normal(size=(6, 3)), rng.normal(size=3))
    x_star, grad_star = problem.known_solution, problem.grad_star
    for gamma in (np.float32(g), np.float64(g)):
        for got, want in [
            (theoretical_rate(gamma, 2, 6, 1.0, 10.0), theoretical_rate(g, 2, 6, 1.0, 10.0)),
            (theoretical_rate(gamma, 1, 6, 1.0, np.float32(10.0)),
             theoretical_rate(g, 1, 6, 1.0, 10.0)),
            (dr_rate(gamma, np.float32(1.0), 10.0), dr_rate(g, 1.0, 10.0)),
            (iteration_complexity(gamma, 2, 6, 1.0, 10.0, 1.0, 1e-6),
             iteration_complexity(g, 2, 6, 1.0, 10.0, 1.0, 1e-6)),
            (LyapunovWeights.from_constants(gamma, 2, np.float32(1.0), 10.0),
             LyapunovWeights.from_constants(g, 2, 1.0, 10.0)),
            (lyapunov(state, problem, x_star, grad_star, gamma, 2),
             lyapunov(state, problem, x_star, grad_star, g, 2)),
            (verify_one_step_contraction(state, problem, gamma, 2, x_star, grad_star),
             verify_one_step_contraction(state, problem, g, 2, x_star, grad_star)),
            (apply_subset_step(state, problem, gamma, [0, 2]).x,
             apply_subset_step(state, problem, g, [0, 2]).x),
        ]:
            assert repr(got) == repr(want)
    assert optimal_stepsize(2, 6, np.float32(1.0), np.float32(10.0)) == 0.18257418583505536
    assert type(optimal_stepsize(2, 6, np.float32(1.0), np.float32(10.0))) is float


@pytest.mark.parametrize("gamma", [np.longdouble(0.1), np.longdouble(1) / 3, np.float32(0.25)])
def test_the_certificate_steps_at_its_admitted_float_gamma(gamma):
    # It took rho and the weights at float(gamma) but proxed at gamma itself,
    # so a longdouble gamma gave a longdouble lhs, stepped at another gamma
    # than its rhs.
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=1))
    t = np.ones((6, 3))
    state = SolverState(0, np.ones(3), t, t.mean(axis=0))
    args = (2, problem.known_solution, problem.grad_star)
    got = verify_one_step_contraction(state, problem, gamma, *args)
    want = verify_one_step_contraction(state, problem, float(gamma), *args)
    for a, b in zip(got, want):
        assert type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()
