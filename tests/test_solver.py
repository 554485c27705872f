import warnings
from dataclasses import replace

import numpy as np
import pytest

from pointsaga import (
    GeneratorSpec,
    QuadraticComponent,
    FiniteSumProblem,
    SolverConfig,
    SolverState,
    apply_subset_step,
    full_gradient,
    gen_logistic_ridge,
    gen_quadratic,
    gen_ridge_regression,
    initialize,
    lyapunov,
    reference_solution,
    run,
    step,
    table_drift,
)
import pointsaga.problems as problems
import pointsaga.solver as solver
from pointsaga.model import ComponentBank
from pointsaga.problems import LogisticRidgeComponent, RankOneRidgeComponent
from pointsaga.errors import InvalidBatchSize, InvalidConstants, ProxFailure
from pointsaga.prox import TOL_PROX
from pointsaga.sampling import SplitMix64, sample_k_subset


def one_dim_problem():
    """n=1, f(x) = x^2/2, minimizer 0."""
    comp = QuadraticComponent(np.eye(1), np.ones(1), np.zeros(1))
    return FiniteSumProblem((comp,), 1.0, 1.0, 1, known_solution=np.zeros(1))


def quad_problem(n=10, d=4, seed=31):
    return gen_quadratic(GeneratorSpec("quadratic", n, d, 1.0, 10.0, seed=seed))


# --- initialize ----------------------------------------------------------------


def test_initialize_at_x0():
    problem = one_dim_problem()
    state = initialize(problem, SolverConfig(s=1), np.array([2.0]))
    assert np.array_equal(state.grad_table, np.array([[2.0]]))
    assert np.array_equal(state.g_avg, np.array([2.0]))
    assert state.t == 0


def test_initialize_zeros():
    problem = quad_problem()
    cfg = SolverConfig(s=2, init_gradients="zeros")
    state = initialize(problem, cfg, np.ones(4))
    assert np.array_equal(state.g_avg, np.zeros(4))
    assert np.array_equal(state.grad_table, np.zeros((10, 4)))


# --- hand-traced steps ----------------------------------------------------------


def test_hand_traced_first_step():
    # z = 2, prox -> 1, table entry (2-1)/1 = 1, avg via the recurrence = 1.
    problem = one_dim_problem()
    cfg = SolverConfig(s=1, gamma=1.0, init_gradients="zeros")
    state = initialize(problem, cfg, np.array([2.0]))
    state = apply_subset_step(state, problem, 1.0, np.array([0]))
    assert state.x[0] == 1.0
    assert state.grad_table[0, 0] == 1.0
    assert state.g_avg[0] == 1.0


def test_hand_traced_second_step():
    problem = one_dim_problem()
    cfg = SolverConfig(s=1, gamma=1.0, init_gradients="zeros")
    state = initialize(problem, cfg, np.array([2.0]))
    state = apply_subset_step(state, problem, 1.0, np.array([0]))
    state = apply_subset_step(state, problem, 1.0, np.array([0]))
    assert state.x[0] == 0.5
    assert state.grad_table[0, 0] == 0.5
    assert state.g_avg[0] == 0.5


# --- run ------------------------------------------------------------------------


def test_run_zero_iterations():
    problem = one_dim_problem()
    cfg = SolverConfig(s=1, gamma=1.0, max_iters=0, init_gradients="zeros")
    state, records = run(problem, cfg, np.array([2.0]))
    assert state.t == 0
    assert len(records) == 1
    assert records[0].t == 0


def test_run_geometric_trajectory():
    # x^t = 2^(1-t), so dist_sq at t=30 is 4 * (1/2)^60.
    problem = one_dim_problem()
    cfg = SolverConfig(s=1, gamma=1.0, max_iters=30, init_gradients="zeros")
    state, records = run(problem, cfg, np.array([2.0]))
    expect = 4.0 * 0.5**60
    assert records[-1].t == 30
    assert abs(records[-1].dist_sq - expect) <= 1e-12 * expect


def test_trace_cadence():
    problem = quad_problem()
    cfg = SolverConfig(s=2, gamma=0.1, max_iters=205, trace_every=10, seed=5)
    _, records = run(problem, cfg, np.zeros(4))
    expect_ts = sorted({0, *range(10, 206, 10), 205})
    assert [r.t for r in records] == expect_ts


def test_bitwise_reproducibility():
    problem = quad_problem()
    cfg = SolverConfig(s=3, gamma=0.2, max_iters=50, seed=77)
    s1, _ = run(problem, cfg, np.zeros(4))
    s2, _ = run(problem, cfg, np.zeros(4))
    assert np.array_equal(s1.x, s2.x)
    assert np.array_equal(s1.grad_table, s2.grad_table)
    assert np.array_equal(s1.g_avg, s2.g_avg)


def test_full_batch_ignores_seed():
    problem = quad_problem()
    outs = []
    for seed in (0, 123456):
        cfg = SolverConfig(s=10, gamma=0.3, max_iters=80, seed=seed)
        state, _ = run(problem, cfg, np.zeros(4))
        outs.append(state)
    assert np.array_equal(outs[0].x, outs[1].x)
    assert np.array_equal(outs[0].grad_table, outs[1].grad_table)


# --- invariants -----------------------------------------------------------------


def test_table_drift_zero_after_initialize():
    problem = quad_problem()
    state = initialize(problem, SolverConfig(s=1), np.zeros(4))
    assert table_drift(state) == 0.0


def test_table_drift_stays_small_without_refresh():
    problem = gen_quadratic(GeneratorSpec("quadratic", 50, 10, 1.0, 10.0, seed=11))
    cfg = SolverConfig(
        s=5, gamma="auto", max_iters=2000, seed=3, trace_every=2000,
        refresh_every=None,
    )
    state, _ = run(problem, cfg, np.zeros(10))
    assert table_drift(state) <= 1e-10 * (1 + np.linalg.norm(state.g_avg))


def test_table_drift_zero_at_refresh_boundary():
    problem = quad_problem()
    cfg = SolverConfig(s=2, gamma=0.1, max_iters=50, seed=1, refresh_every=50)
    state, _ = run(problem, cfg, np.zeros(4))
    assert table_drift(state) == 0.0


def test_gradient_identity_for_updated_entries():
    # Updated table rows equal grad f_i at the prox output, to TOL_PROX/gamma;
    # the prox output is recovered from x_i = z_i - gamma * g_i.
    problem = quad_problem()
    gamma = 0.25
    cfg = SolverConfig(s=4, gamma=gamma, seed=9)
    state = initialize(problem, cfg, np.zeros(4))
    rng = SplitMix64(3)
    for _ in range(10):
        before = state
        state = step(before, problem, cfg, rng, gamma=gamma)
        changed = np.nonzero(
            np.any(state.grad_table != before.grad_table, axis=1)
        )[0]
        assert len(changed) >= 1
        for i in changed:
            z_i = before.x + gamma * (before.grad_table[i] - before.g_avg)
            x_i = z_i - gamma * state.grad_table[i]
            g_err = state.grad_table[i] - problem.components[i].gradient(x_i)
            assert np.linalg.norm(g_err) <= TOL_PROX / gamma


def test_fixed_point_is_stationary():
    problem = quad_problem()
    x_star = problem.known_solution
    table = np.stack([c.gradient(x_star) for c in problem.components])
    state = SolverState(0, x_star.copy(), table, table.mean(axis=0))
    nxt = apply_subset_step(state, problem, 0.3, np.arange(10))
    assert np.linalg.norm(nxt.x - x_star) <= 1e-10
    assert np.abs(nxt.grad_table - table).max() <= 1e-9


# --- purity and aliasing ----------------------------------------------------------


def snapshot(state):
    return state.t, state.x.copy(), state.grad_table.copy(), state.g_avg.copy()


def assert_state_equals(state, snap):
    t, x, table, g_avg = snap
    assert state.t == t
    assert np.array_equal(state.x, x)
    assert np.array_equal(state.grad_table, table)
    assert np.array_equal(state.g_avg, g_avg)


def assert_disjoint(a, b):
    for u, v in ((a.x, b.x), (a.grad_table, b.grad_table), (a.g_avg, b.g_avg)):
        assert not np.shares_memory(u, v)


def test_step_and_apply_subset_step_leave_input_unchanged():
    problem = quad_problem()
    cfg = SolverConfig(s=3, gamma=0.2, refresh_every=1)
    state = initialize(problem, cfg, np.ones(4))
    state = apply_subset_step(state, problem, 0.2, np.array([1, 4]))
    snap = snapshot(state)
    nxt = apply_subset_step(state, problem, 0.2, np.array([0, 2, 9]))
    assert_state_equals(state, snap)
    assert_disjoint(state, nxt)
    nxt = step(state, problem, cfg, SplitMix64(4), gamma=0.2)
    assert_state_equals(state, snap)
    assert_disjoint(state, nxt)
    assert not np.array_equal(nxt.grad_table, state.grad_table)


def test_runs_from_one_x0_array_agree_and_leave_it_unchanged():
    problem = quad_problem()
    x0 = np.linspace(-1.0, 1.0, 4)
    before = x0.copy()
    cfg = SolverConfig(s=3, gamma=0.2, max_iters=50, seed=77, trace_every=5)
    s1, r1 = run(problem, cfg, x0)
    s2, r2 = run(problem, cfg, x0)
    assert np.array_equal(x0, before)
    assert not np.shares_memory(s1.x, x0)
    assert_state_equals(s2, snapshot(s1))
    assert [(r.t, r.dist_sq, r.lyapunov, r.table_drift) for r in r1] == [
        (r.t, r.dist_sq, r.lyapunov, r.table_drift) for r in r2
    ]


# --- trace equivalence with the pure step -----------------------------------------


def check_record(record, state, problem, gamma, s, grad_star):
    x_star = problem.known_solution
    d = state.x - x_star
    assert record.t == state.t
    assert record.dist_sq == d @ d
    assert record.lyapunov == lyapunov(state, problem, x_star, grad_star, gamma, s)
    drift = table_drift(state)
    assert record.table_drift == drift and type(record.table_drift) is type(drift)


PROBLEMS_10_BY_4 = {
    "quad": quad_problem,
    "quad_longdouble": lambda: gen_quadratic(
        GeneratorSpec("quadratic", 10, 4, 1.0, 10.0, seed=31), dtype=np.longdouble),
    "ridge": lambda: gen_ridge_regression(
        GeneratorSpec("ridge_regression", 10, 4, 1.0, 10.0, seed=31)),
    "logistic": lambda: gen_logistic_ridge(
        GeneratorSpec("logistic_ridge", 10, 4, 1.0, 10.0, seed=31)),
}


@pytest.mark.parametrize("refresh_every", [1, 10], ids=lambda r: f"refresh{r}")
@pytest.mark.parametrize("s", [1, 3, 10], ids=lambda s: f"s{s}")
@pytest.mark.parametrize("kind", list(PROBLEMS_10_BY_4))
def test_run_matches_loop_of_pure_steps(kind, s, refresh_every, monkeypatch):
    # run keeps Psi's row errors and rescores only the rows a step writes,
    # and draws its subsets in blocks (of 20, 6 and 2 iterations here); every
    # record must still be lyapunov() of the pure loop's state, bitwise.
    monkeypatch.setattr(solver, "SUBSET_BLOCK", 20)
    problem = PROBLEMS_10_BY_4[kind]()
    x0 = np.zeros(4, dtype=problem.known_solution.dtype)
    gamma = 0.2
    cfg = SolverConfig(s=s, gamma=gamma, max_iters=60, seed=13, trace_every=7,
                       refresh_every=refresh_every)
    final, records = run(problem, cfg, x0)

    state = initialize(problem, cfg, x0)
    rng = SplitMix64(cfg.seed)
    states = {0: state}
    while state.t < cfg.max_iters:
        state = step(state, problem, cfg, rng, gamma=gamma)
        states[state.t] = state
    assert_state_equals(final, snapshot(state))

    grad_star = np.stack([c.gradient(problem.known_solution) for c in problem.components])
    assert [r.t for r in records] == [0, 7, 14, 21, 28, 35, 42, 49, 56, 60]
    for r in records:
        check_record(r, states[r.t], problem, gamma, cfg.s, grad_star)


def test_run_rescores_only_the_rows_each_step_writes(monkeypatch):
    # A full-table pass per record, the O(n*d) cost run no longer pays, shows
    # as a row-dot call over n rows after the first or as a call of psi.
    from pointsaga import analysis

    seen = []
    dots = analysis._dots

    def counting_dots(A, B):
        seen.append(A.shape[0])
        return dots(A, B)

    def no_psi(*args):
        raise AssertionError("LyapunovWeights.psi called")

    monkeypatch.setattr(analysis, "_dots", counting_dots)
    monkeypatch.setattr(analysis.LyapunovWeights, "psi", no_psi)
    problem = quad_problem(n=30)
    cfg = SolverConfig(s=2, gamma=0.2, max_iters=25, seed=4, trace_every=1)
    _, records = run(problem, cfg, np.zeros(4))
    assert len(records) == 26
    assert seen == [30] + [2] * 25


def test_prox_failure_names_component(monkeypatch):
    monkeypatch.setattr(solver, "TOL_PROX", 1e-30)
    problem = quad_problem()
    cfg = SolverConfig(s=2, gamma=0.1, max_iters=5, seed=2)
    with pytest.raises(ProxFailure) as err:
        run(problem, cfg, np.ones(4) * 100)
    assert 1 <= err.value.index <= 10
    assert (err.value.t, err.value.gamma) == (1, 0.1)
    assert "at iteration 1, gamma=0.1" in str(err.value)


def test_prox_failure_mid_block_names_its_iteration(monkeypatch):
    # Blocks of 4 iterations; the prox fails at iteration 6, inside the second.
    monkeypatch.setattr(solver, "SUBSET_BLOCK", 8)
    problem = quad_problem()
    prox = problem.bank.prox
    calls = []

    def failing_sixth(gamma, idx, Z):
        calls.append(idx)
        P, residuals = prox(gamma, idx, Z)
        return P, residuals + (np.inf if len(calls) == 6 else 0.0)

    monkeypatch.setattr(problem.bank, "prox", failing_sixth)
    cfg = SolverConfig(s=2, gamma=0.1, max_iters=20, seed=2)
    with pytest.raises(ProxFailure) as err:
        run(problem, cfg, np.ones(4))
    rng = SplitMix64(cfg.seed)
    subsets = [sample_k_subset(rng, problem.n, cfg.s) for _ in range(6)]
    assert [tuple(i + 1 for i in idx.tolist()) for idx in calls] == subsets
    assert (err.value.t, err.value.index) == (6, subsets[5][0])


def test_prox_check_holds_where_the_squared_norm_overflows(monkeypatch):
    # At ||z|| ~ 1e200 a float64 sum of squares overflows to inf, which would
    # pass every residual; the bound stays TOL_PROX * (1 + ||z||) instead.
    problem = quad_problem()
    state = initialize(problem, SolverConfig(), np.full(4, 1e200))
    gamma, idx = 0.1, [0, 1]
    z = (state.x + gamma * (state.grad_table[idx] - state.g_avg)).astype(np.longdouble)
    bound = TOL_PROX * np.sqrt((z * z).sum(axis=1))
    assert (1e190 < bound).all() and (bound < 1e200).all()

    def injected(factor):
        return lambda gamma, idx, Z: (Z.copy(), (factor * bound).astype(float))

    monkeypatch.setattr(problem.bank, "prox", injected(1.01))
    with pytest.raises(ProxFailure):
        apply_subset_step(state, problem, gamma, idx)
    monkeypatch.setattr(problem.bank, "prox", injected(0.99))
    assert apply_subset_step(state, problem, gamma, idx).t == 1


@pytest.mark.parametrize("family", ["quadratic", "ridge"])
def test_residuals_stay_finite_where_their_squares_overflow(family):
    # At ||x0|| ~ 1e170 the resolvent defects near 1e155, whose squares
    # overflow float64; their norms are taken scaled, and the bank's rows
    # stay bitwise the components' residuals.
    if family == "quadratic":
        problem = gen_quadratic(GeneratorSpec("quadratic", 10, 4, 1.0, 10.0))
    else:
        problem = gen_ridge_regression(GeneratorSpec("ridge_regression", 10, 4, 1.0, 10.0))
    x0 = np.full(4, 1e170)
    idx = np.array([0, 3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = problem.components[0].prox(0.1, x0)
        _, residuals = problem.bank.prox(0.1, idx, np.stack([x0, x0]))
        state = apply_subset_step(initialize(problem, SolverConfig(), x0), problem, 0.1, idx)
    assert 0.0 < one.residual < np.inf
    assert residuals[0] == one.residual and np.isfinite(residuals).all()
    assert state.t == 1 and np.isfinite(state.x).all()


def test_run_skips_the_drift_pass_only_where_it_is_zero(monkeypatch):
    # A refresh sets g_avg to the table mean, so those records need no pass;
    # with refresh_every=3 and trace_every=2, the records at t = 2, 4, 8 do.
    drifts = []

    def counting_drift(state):
        drifts.append(state.t)
        return table_drift(state)

    monkeypatch.setattr(solver, "table_drift", counting_drift)
    cfg = SolverConfig(s=2, gamma=0.2, max_iters=10, seed=1, trace_every=2, refresh_every=3)
    _, records = run(quad_problem(), cfg, np.ones(4))
    assert [r.t for r in records] == [0, 2, 4, 6, 8, 10]
    assert drifts == [2, 4, 8, 10]
    assert records[3].table_drift == 0.0 and type(records[3].table_drift) is np.float64


@pytest.mark.parametrize("refresh_every", [3, None], ids=lambda r: f"refresh{r}")
def test_run_without_drift_differs_only_in_the_drift(refresh_every, monkeypatch):
    def no_drift(state):
        raise AssertionError("table_drift called")

    problem = quad_problem()
    cfg = SolverConfig(s=2, gamma=0.2, max_iters=30, seed=5, trace_every=1,
                       refresh_every=refresh_every)
    final, records = run(problem, cfg, np.ones(4))
    monkeypatch.setattr(solver, "table_drift", no_drift)
    bare_final, bare = run(problem, cfg, np.ones(4), drift=False)
    assert [(r.t, r.dist_sq, r.lyapunov) for r in bare] == [
        (r.t, r.dist_sq, r.lyapunov) for r in records]
    assert all(r.table_drift is None for r in bare)
    assert_state_equals(bare_final, snapshot(final))


def test_run_computes_the_drift_of_a_non_finite_mean():
    # Where the table mean overflows, inf - inf gives a NaN drift, not +0.0.
    problem = quad_problem()
    with np.errstate(all="ignore"):
        _, records = run(problem, SolverConfig(max_iters=0), np.full(4, 1e308))
    assert np.isnan(records[0].table_drift)


def test_run_scores_an_overflowing_psi0_without_a_warning():
    # The table errors overflow at this x0 while ||x0 - x*||^2 does not, so
    # Psi(0) reads inf without tripping the check on the Lyapunov weights.
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, records = run(problem, SolverConfig(s=2, max_iters=0, seed=1), np.full(3, 1.5e153))
    assert np.isfinite(records[0].dist_sq) and records[0].lyapunov == np.inf


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_run_through_prox_bank_matches_per_component_prox(dtype, monkeypatch):
    problem = gen_quadratic(GeneratorSpec("quadratic", 12, 4, 1.0, 10.0, seed=3), dtype=dtype)
    assert_run_matches_component_bank(problem, monkeypatch)


@pytest.mark.parametrize("family,dtype", [("ridge", np.float64), ("ridge", np.longdouble),
                                          ("logistic", np.float64)])
def test_run_through_row_bank_matches_component_bank(family, dtype, monkeypatch):
    monkeypatch.setattr(problems, "NEWTON_BATCH_MIN", 1)  # batch every logistic subset
    if family == "ridge":
        spec = GeneratorSpec("ridge_regression", 12, 4, 1.0, 10.0, seed=3)
        problem = gen_ridge_regression(spec, dtype=dtype)
    else:
        problem = gen_logistic_ridge(GeneratorSpec("logistic_ridge", 12, 4, 1.0, 10.0, seed=3))
    assert_run_matches_component_bank(problem, monkeypatch)


def assert_run_matches_component_bank(problem, monkeypatch):
    """run through the problem's own bank and through the one-by-one default
    bank agree bitwise, failures included."""
    assert type(problem.bank) is not ComponentBank
    dtype = problem.known_solution.dtype
    unbanked = replace(problem)
    # force the one-by-one path
    object.__setattr__(unbanked, "bank", ComponentBank(problem.components))
    x0 = (problem.known_solution + 5.0).astype(dtype)
    for s in (1, 5, 12):
        cfg = SolverConfig(s=s, gamma="auto", max_iters=40, seed=s, trace_every=3)
        a, rec_a = run(problem, cfg, x0)
        b, rec_b = run(unbanked, cfg, x0)
        for field in ("x", "grad_table", "g_avg"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert [(r.t, r.dist_sq, r.lyapunov, r.table_drift) for r in rec_a] == [
            (r.t, r.dist_sq, r.lyapunov, r.table_drift) for r in rec_b
        ]
    monkeypatch.setattr(solver, "TOL_PROX", 1e-30)
    cfg = SolverConfig(s=5, gamma=0.1, max_iters=5, seed=2)
    errors = []
    for p in (problem, unbanked):
        with pytest.raises(ProxFailure) as err:
            run(p, cfg, x0)
        errors.append((err.value.index, str(err.value)))
    assert errors[0] == errors[1]


def test_banked_families_never_call_component_gradient(monkeypatch):
    # Each call below is O(n) Python calls if a per-row loop creeps back in.
    ridge = gen_ridge_regression(GeneratorSpec("ridge_regression", 30, 3, 0.5, 4.0, seed=1))
    logistic = gen_logistic_ridge(GeneratorSpec("logistic_ridge", 30, 3, 0.5, 4.0, seed=2))

    def no_gradient(self, x):
        raise AssertionError("per-component gradient called")

    monkeypatch.setattr(RankOneRidgeComponent, "gradient", no_gradient)
    monkeypatch.setattr(LogisticRidgeComponent, "gradient", no_gradient)
    cfg = SolverConfig(s=4, max_iters=20, seed=5, trace_every=3)
    for problem in (ridge, logistic):
        x0 = np.ones(3)
        run(problem, cfg, x0)
        initialize(problem, cfg, x0)
        full_gradient(problem, x0)
        reference_solution(problem)


def test_invalid_batch_size_rejected():
    problem = quad_problem()
    with pytest.raises(InvalidBatchSize):
        run(problem, SolverConfig(s=11, gamma=0.1, max_iters=1), np.zeros(4))


@pytest.mark.parametrize("gamma", ["fast", float("inf"), float("nan"), 0.0])
def test_non_finite_or_non_numeric_gamma_rejected(gamma):
    with pytest.raises(InvalidConstants):
        SolverConfig(gamma=gamma).validate(10)


@pytest.mark.parametrize("field", [{"refresh_every": 0}, {"init_gradients": "ones"},
                                   {"seed": -1}, {"seed": 2**64}, {"s": 2.0},
                                   {"max_iters": 3.5}, {"trace_every": 2.5},
                                   {"refresh_every": 2.0}, {"seed": 1.5}],
                         ids=["refresh_every-0", "init_gradients-ones", "seed--1", "seed-2^64",
                              "s-2.0", "max_iters-3.5", "trace_every-2.5", "refresh_every-2.0",
                              "seed-1.5"])
def test_out_of_range_config_rejected(field):
    with pytest.raises(InvalidConstants):
        SolverConfig(**field).validate(10)


def test_initialize_rejects_unknown_init_gradients():
    with pytest.raises(InvalidConstants, match="'ones'"):
        initialize(quad_problem(), SolverConfig(init_gradients="ones"), np.zeros(4))


def test_numpy_integer_config_runs_like_python_ints():
    problem = quad_problem()
    sizes = {"s": 2, "max_iters": 9, "seed": 5, "trace_every": 2, "refresh_every": 4}
    numpy_sizes = {k: np.int64(v) for k, v in sizes.items()} | {"seed": np.uint64(5)}
    runs = [run(problem, SolverConfig(gamma=0.2, **cfg), np.ones(4))
            for cfg in (sizes, numpy_sizes)]
    (a, rec_a), (b, rec_b) = runs
    assert_state_equals(a, snapshot(b))
    assert [(r.t, r.dist_sq, r.lyapunov, r.table_drift) for r in rec_a] == [
        (r.t, r.dist_sq, r.lyapunov, r.table_drift) for r in rec_b]
    assert [type(r.lyapunov) for r in rec_a] == [type(r.lyapunov) for r in rec_b]


def test_run_rejects_a_gamma_whose_weights_overflow_psi0():
    # Both terms of Psi(0) are finite, but w_g ~ gamma^2 overflows their sum.
    problem = quad_problem()
    cfg = SolverConfig(gamma=1e153, max_iters=3)
    with pytest.raises(InvalidConstants, match=r"Psi at t=0 overflows at gamma=1e\+153"):
        run(problem, cfg, np.ones(4))
    # Longdouble holds the same Psi(0), near 1e309, as a finite number.
    problem = gen_quadratic(GeneratorSpec("quadratic", 10, 4, 1.0, 10.0, seed=31),
                            dtype=np.longdouble)
    _, records = run(problem, replace(cfg, max_iters=0), np.ones(4, dtype=np.longdouble))
    assert np.finfo(np.float64).max < records[0].lyapunov < np.inf
