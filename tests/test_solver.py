import itertools
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointsaga import (
    GeneratorSpec,
    QuadraticComponent,
    FiniteSumProblem,
    SolverConfig,
    SolverState,
    TraceRecord,
    apply_subset_step,
    consensus_dr_run,
    full_gradient,
    gen_logistic_ridge,
    gen_quadratic,
    gen_ridge_regression,
    initialize,
    lyapunov,
    reference_solution,
    load_libsvm,
    run,
    run_many,
    step,
    table_drift,
    verify_one_step_contraction,
)
import pointsaga.problems as problems
import pointsaga.solver as solver
from pointsaga.model import ComponentBank
from pointsaga.problems import LogisticRidgeComponent, RankOneRidgeComponent
from pointsaga.errors import DimensionMismatch, InvalidBatchSize, InvalidConstants, ProxFailure
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


def _prox_decision(state, problem, gamma, idx):
    """The component apply_subset_step fails on (1-based), or None."""
    try:
        apply_subset_step(state, problem, gamma, idx)
    except ProxFailure as err:
        return err.index
    return None


def test_prox_row_decision_ignores_a_huge_row_beside_it(monkeypatch):
    # Rows 1 and 3 shift to +-1e200, whose squares overflow; row 2 shifts to
    # (1, 1, 1), so its bound is TOL_PROX * (1 + sqrt(3)) in every subset.
    problem = gen_quadratic(GeneratorSpec("quadratic", 4, 3, 1.0, 10.0, seed=1))
    table = np.array([1e201, 0.0, -1e201, 0.0])[:, None] * np.ones(3)
    state = SolverState(0, np.ones(3), table, table.mean(axis=0))
    assert np.array_equal(state.g_avg, np.zeros(3))
    for residual, expected in ((2e-10, None), (3e-10, 2)):
        monkeypatch.setattr(problem.bank, "prox", lambda gamma, idx, Z: (
            Z.copy(), np.where(idx == 1, residual, 0.0)))
        for idx in ([1], [0, 1], [1, 3], [0, 1, 2]):
            assert _prox_decision(state, problem, 0.1, idx) == expected


@settings(max_examples=60)
@given(st.lists(st.tuples(st.floats(-3.0, 300.0), st.floats(0.0, 2.0)),
                min_size=2, max_size=5))
def test_prox_row_decisions_do_not_depend_on_the_subset(rows):
    # Row i shifts to 10^e_i * (1, -0.5, 0.25) and reports a residual of
    # f_i * TOL_PROX * (1 + 10^e_i). Each subset fails on its lowest
    # component that fails alone, or on none.
    problem = gen_quadratic(GeneratorSpec("quadratic", len(rows), 3, 1.0, 10.0))
    scales = np.array([10.0 ** e for e, _ in rows])
    residuals = np.array([f for _, f in rows]) * TOL_PROX * (1.0 + scales)
    problem.bank.prox = lambda gamma, idx, Z: (Z.copy(), residuals[idx])
    # x = g_avg = 0 and gamma = 1: the shifted points are the table rows.
    state = SolverState(0, np.zeros(3), np.outer(scales, [1.0, -0.5, 0.25]), np.zeros(3))
    alone = [_prox_decision(state, problem, 1.0, [i]) for i in range(len(rows))]
    for size in range(2, len(rows) + 1):
        for subset in itertools.combinations(range(len(rows)), size):
            failing = [alone[i] for i in subset if alone[i] is not None]
            expected = failing[0] if failing else None
            assert _prox_decision(state, problem, 1.0, list(subset)) == expected


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


def test_records_past_the_float_range_read_inf_without_a_warning():
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0))
    bare = FiniteSumProblem(problem.components, 1.0, 10.0, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # The table errors overflow Psi at every record.
        _, records = run(problem, SolverConfig(s=2, max_iters=2, seed=1), np.full(3, 1.5e153))
        assert [r.lyapunov for r in records] == [np.inf] * 3
        # ||x0 - x*||^2 overflows.
        _, records = run(problem, SolverConfig(max_iters=0), np.full(3, 1e155))
        assert records[0].dist_sq == np.inf and records[0].lyapunov == np.inf
        # The written rows' Psi errors overflow between records too.
        cfg = SolverConfig(s=2, max_iters=3, seed=1, refresh_every=None)
        _, records = run(problem, cfg, np.full(3, 1e155))
        assert [r.lyapunov for r in records] == [np.inf] * 4
        # The drift's square overflows once the recurrence has moved g_avg.
        cfg = SolverConfig(s=2, gamma=0.1, max_iters=6, seed=1, refresh_every=None)
        _, records = run(bare, cfg, np.full(3, 1e170))
    assert records[0].table_drift == 0.0 and records[-1].table_drift == np.inf


def test_run_reads_the_kept_gradients_at_the_solution(monkeypatch):
    # One gradient stack per run (initialize's) where the run works in the
    # known solution's dtype, float64: a float32 x0 on this float64 problem
    # does too, so it scores Psi at the float64 x*. A run in another dtype
    # builds the stack at x* again, in its own.
    problem = gen_ridge_regression(GeneratorSpec("ridge_regression", 9, 3, 0.5, 4.0, seed=2))
    x_star = problem.known_solution
    calls = []
    gradients = problems.RidgeBank.gradients
    monkeypatch.setattr(problems.RidgeBank, "gradients",
                        lambda self, x: calls.append(x.dtype) or gradients(self, x))
    cfg = SolverConfig(s=2, max_iters=25, seed=4, trace_every=4, refresh_every=10)
    for dtype, expected, working in ((np.float64, [np.float64], np.float64),
                                     (np.float32, [np.float32], np.float64),
                                     (np.longdouble, [np.longdouble] * 2, np.longdouble)):
        calls.clear()
        final, records = run(problem, cfg, (x_star + 1.0).astype(dtype))
        assert calls == expected
        assert final.x.dtype == final.grad_table.dtype == final.g_avg.dtype == working
        # Psi of the last record is lyapunov's on a per-component oracle.
        xs = x_star.astype(working)
        oracle = np.stack([c.gradient(xs) for c in problem.components])
        gamma = cfg.resolve_gamma(problem)
        psi = lyapunov(final, problem, xs, oracle, gamma, cfg.s)
        assert records[-1].t == final.t and records[-1].lyapunov == psi
        d = final.x - xs
        assert records[-1].dist_sq == d @ d


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


@pytest.mark.parametrize("indices0,gamma,error", [
    ([-1], 0.1, InvalidBatchSize),  # ran component 6
    ([0.5], 0.1, InvalidBatchSize),  # ran component 1
    ([1, 1], 0.1, InvalidBatchSize),  # ran, and miscounted the written rows
    ([3, 1], 0.1, InvalidBatchSize),  # ran
    ([6], 0.1, InvalidBatchSize),  # IndexError
    ([], 0.1, InvalidBatchSize),  # ValueError
    ([[0, 1]], 0.1, InvalidBatchSize),
    ([0, 2], -0.1, InvalidConstants),  # RuntimeWarning: divide by zero
    ([0, 2], float("nan"), InvalidConstants),  # ProxFailure
], ids=["negative", "fractional", "repeated", "unsorted", "past-n", "empty", "2-d",
        "negative-gamma", "nan-gamma"])
def test_apply_subset_step_checks_its_inputs(indices0, gamma, error):
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=1))
    state = initialize(problem, SolverConfig(), np.ones(3))
    with pytest.raises(error):
        apply_subset_step(state, problem, gamma, indices0)


@pytest.mark.parametrize("gamma", [-0.1, 0.0, float("nan"), float("inf")])
def test_step_checks_its_gamma(gamma):
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=1))
    state = initialize(problem, SolverConfig(s=2), np.ones(3))
    with pytest.raises(InvalidConstants):
        step(state, problem, SolverConfig(s=2), SplitMix64(0), gamma)


@pytest.mark.parametrize("refresh_every", [0, "3", 1.5, -1])
def test_step_checks_its_config_before_it_draws(refresh_every):
    # 0 raised ZeroDivisionError, "3" a TypeError, and 1.5 and -1 ran.
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=1))
    state = initialize(problem, SolverConfig(s=2, init_gradients="zeros"), np.ones(3))
    rng = SplitMix64(0)
    with pytest.raises(InvalidConstants, match="refresh_every must be"):
        step(state, problem, SolverConfig(s=2, refresh_every=refresh_every), rng, 0.1)
    assert rng.state == SplitMix64(0).state


@pytest.mark.parametrize("gamma", ["fast", float("inf"), float("nan"), 0.0])
def test_non_finite_or_non_numeric_gamma_rejected(gamma):
    with pytest.raises(InvalidConstants):
        SolverConfig(gamma=gamma).validate(quad_problem())


@pytest.mark.parametrize("field", [{"refresh_every": 0}, {"init_gradients": "ones"},
                                   {"seed": -1}, {"seed": 2**64}, {"s": 2.0},
                                   {"max_iters": 3.5}, {"trace_every": 2.5},
                                   {"refresh_every": 2.0}, {"seed": 1.5}],
                         ids=["refresh_every-0", "init_gradients-ones", "seed--1", "seed-2^64",
                              "s-2.0", "max_iters-3.5", "trace_every-2.5", "refresh_every-2.0",
                              "seed-1.5"])
def test_out_of_range_config_rejected(field):
    # s is a size, checked as the samplers check it; every other field is a constant.
    with pytest.raises(InvalidBatchSize if "s" in field else InvalidConstants):
        SolverConfig(**field).validate(quad_problem())


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


# --- trajectories advanced together -------------------------------------------------


def libsvm_problem(path, n=12, d=5):
    """A seeded libsvm file of n rows and width d, loaded, with its minimizer."""
    rng = np.random.default_rng(23)
    with open(path, "w") as fh:
        for _ in range(n):
            idx = np.sort(rng.choice(d, 3, replace=False))
            feats = " ".join(f"{i + 1}:{v:.17g}" for i, v in zip(idx, rng.normal(size=3)))
            fh.write(f"{1 if rng.random() < 0.5 else -1} {feats}\n")
    _, problem = load_libsvm(path, 0.2)
    return problem.with_known_solution(reference_solution(problem))


PROBLEMS_OF_12 = {
    "quad": lambda tmp: quad_problem(n=12),
    "quad-d1": lambda tmp: gen_quadratic(GeneratorSpec("quadratic", 12, 1, 2.0, 2.0, seed=3)),
    "quad-longdouble": lambda tmp: gen_quadratic(
        GeneratorSpec("quadratic", 12, 4, 1.0, 10.0, seed=31), dtype=np.longdouble),
    "ridge": lambda tmp: gen_ridge_regression(
        GeneratorSpec("ridge_regression", 12, 4, 1.0, 10.0, seed=31)),
    "logistic": lambda tmp: gen_logistic_ridge(
        GeneratorSpec("logistic_ridge", 12, 4, 1.0, 10.0, seed=31)),
    "libsvm": lambda tmp: libsvm_problem(tmp / "data.txt"),
}


def assert_same_trajectory(got, expected):
    """Equal states, dtypes included, and records equal in every field but
    wall_ns, of the same types."""
    (state, records), (state_0, records_0) = got, expected
    assert state.t == state_0.t
    for field in ("x", "grad_table", "g_avg"):
        a, b = getattr(state, field), getattr(state_0, field)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    fields = [[(r.t, r.dist_sq, r.lyapunov, r.table_drift) for r in rs]
              for rs in (records, records_0)]
    assert fields[0] == fields[1]
    assert [tuple(map(type, f)) for f in fields[0]] == [tuple(map(type, f)) for f in fields[1]]


@pytest.mark.parametrize("drift", [True, False], ids=["drift", "no-drift"])
@pytest.mark.parametrize("refresh_every", [1, 7, None], ids=lambda r: f"refresh{r}")
@pytest.mark.parametrize("kind", list(PROBLEMS_OF_12))
def test_run_many_matches_a_loop_of_runs(kind, refresh_every, drift, tmp_path, monkeypatch):
    # Mixed s (s = n too), gammas and seeds; 21 union rows, so blocks of 2
    # iterations, and of 50 // s for each run alone.
    monkeypatch.setattr(solver, "SUBSET_BLOCK", 50)
    problem = PROBLEMS_OF_12[kind](tmp_path)
    x0 = (problem.known_solution + 2.0).astype(problem.known_solution.dtype)
    configs = [SolverConfig(s=s, gamma=gamma, max_iters=31, seed=seed, trace_every=3,
                            refresh_every=refresh_every)
               for s, gamma, seed in ((1, "auto", 3), (4, 0.3, 4), (12, "auto", 5), (4, 0.3, 6))]
    together = run_many(problem, configs, x0, drift=drift)
    assert len(together) == len(configs)
    for got, config in zip(together, configs):
        assert_same_trajectory(got, run(problem, config, x0, drift=drift))



def test_run_many_again_on_a_subset_of_the_gammas():
    # The quadratic bank's cache keeps the first call's three gammas; the
    # second call's two must each get their own resolvents from it.
    problem = quad_problem()
    x0 = np.ones(4)
    for gammas in ((0.1, 0.2, 0.5), (0.1, 0.5), (0.5, 0.5)):
        configs = [SolverConfig(s=2, gamma=gamma, max_iters=6, seed=k, trace_every=2)
                   for k, gamma in enumerate(gammas)]
        for got, config in zip(run_many(problem, configs, x0), configs):
            assert_same_trajectory(got, run(problem, config, x0))


def test_run_many_makes_one_prox_call_of_the_union_per_iteration(monkeypatch):
    problem = gen_logistic_ridge(GeneratorSpec("logistic_ridge", 12, 4, 1.0, 10.0, seed=31))
    prox = problem.bank.prox
    calls = []

    def counted(gamma, idx, Z):
        calls.append((np.copy(gamma), idx.copy()))
        return prox(gamma, idx, Z)

    monkeypatch.setattr(problem.bank, "prox", counted)
    configs = [SolverConfig(s=s, gamma=gamma, max_iters=5, seed=s, init_gradients="zeros")
               for s, gamma in ((1, 0.1), (3, 0.2), (3, 0.2))]
    run_many(problem, configs, np.zeros(4))
    assert len(calls) == 5
    streams = [SplitMix64(config.seed) for config in configs]
    for gamma, idx in calls:
        # Each trajectory's rows, at its gamma, in the order of the configs.
        subsets = [sample_k_subset(rng, 12, c.s) for rng, c in zip(streams, configs)]
        assert idx.tolist() == [i - 1 for subset in subsets for i in subset]
        assert gamma.tolist() == [0.1, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2]


def test_run_many_passes_a_shared_gamma_as_one_number(monkeypatch):
    problem = quad_problem()
    gammas = []
    prox = problem.bank.prox
    monkeypatch.setattr(problem.bank, "prox",
                        lambda gamma, idx, Z: gammas.append(gamma) or prox(gamma, idx, Z))
    run_many(problem, [SolverConfig(s=2, gamma=0.2, max_iters=3, seed=k) for k in range(3)],
             np.zeros(4))
    assert gammas == [0.2] * 3 and all(type(g) is float for g in gammas)


@pytest.mark.parametrize("field", [{"max_iters": 5}, {"trace_every": 2},
                                   {"refresh_every": None}, {"init_gradients": "zeros"}])
def test_run_many_needs_shared_budget_and_cadences(field):
    problem = quad_problem()
    configs = [SolverConfig(s=2, max_iters=4), SolverConfig(**{"s": 3, "max_iters": 4} | field)]
    with pytest.raises(InvalidConstants, match="must share max_iters"):
        run_many(problem, configs, np.zeros(4))
    assert run_many(problem, [], np.zeros(4)) == []


def test_run_many_raises_the_earliest_failure(monkeypatch):
    # Trajectory 1 fails at its first iteration, trajectory 0 never does.
    problem = quad_problem()
    prox = problem.bank.prox
    monkeypatch.setattr(problem.bank, "prox", lambda gamma, idx, Z: (
        lambda P, residuals: (P, residuals + np.where(np.asarray(gamma) == 0.3, np.inf, 0.0))
    )(*prox(gamma, idx, Z)))
    configs = [SolverConfig(s=2, gamma=0.2, max_iters=4), SolverConfig(s=3, gamma=0.3, max_iters=4)]
    with pytest.raises(ProxFailure) as err:
        run_many(problem, configs, np.ones(4))
    assert (err.value.t, err.value.gamma) == (1, 0.3)
    first = sample_k_subset(SplitMix64(0), problem.n, 3)
    assert err.value.index == first[0]


@pytest.mark.parametrize("dtypes", [(np.float64, np.float32), (np.float32, np.float32),
                                    (np.float32, np.float64)],
                         ids=["f64-problem-f32-x0", "f32", "f32-problem-f64-x0"])
def test_run_many_matches_runs_across_dtypes(dtypes, monkeypatch):
    # Each trajectory's gamma must scale float32 and mixed arrays as its
    # Python float does: in float32 where the operand is float32. A float32
    # problem's proxes cannot meet the absolute 1e-10 bound, so it is widened.
    problem_dtype, x0_dtype = dtypes
    monkeypatch.setattr(solver, "TOL_PROX", 1e-3)
    problem = gen_quadratic(GeneratorSpec("quadratic", 8, 3, 1.0, 10.0, seed=7), dtype=problem_dtype)
    configs = [SolverConfig(s=s, gamma=gamma, max_iters=15, seed=k, trace_every=2,
                            refresh_every=None)
               for k, (s, gamma) in enumerate([(1, 0.1), (8, 0.3), (3, 0.2)])]
    x0 = np.ones(3, dtype=x0_dtype)
    for got, config in zip(run_many(problem, configs, x0), configs):
        assert_same_trajectory(got, run(problem, config, x0))


#: The entry points that take a SolverState, each called on a state, a
#: 6-component problem in dimension 3 and a SplitMix64.
_STATE_ENTRY_POINTS = {
    "step": lambda st, p, rng: step(st, p, SolverConfig(s=2), rng, 0.1),
    "apply_subset_step": lambda st, p, rng: apply_subset_step(st, p, 0.1, [5]),
    "lyapunov": lambda st, p, rng: lyapunov(st, p, p.known_solution, p.grad_star, 0.1, 2),
    "verify_one_step_contraction": lambda st, p, rng: verify_one_step_contraction(
        st, p, 0.1, 2, p.known_solution, p.grad_star),
}


@pytest.mark.parametrize("entry", list(_STATE_ENTRY_POINTS))
@pytest.mark.parametrize("field,value,message", [
    ("grad_table", np.zeros((5, 3)), "state.grad_table has shape (5, 3), expected (6, 3)"),
    ("x", np.zeros(4), "state.x has shape (4,), expected (3,)"),
    ("g_avg", np.zeros((1, 3)), "state.g_avg has shape (1, 3), expected (3,)"),
], ids=["table-5-rows", "x-4", "g_avg-1x3"])
def test_a_state_that_does_not_fit_its_problem_raises_dimension_mismatch(
        entry, field, value, message, monkeypatch):
    # A 5-row table gave step and apply_subset_step a 5-row state back (or
    # numpy's IndexError for a subset holding component 5), and lyapunov
    # and the verifier numpy's ValueError. Now no prox runs and step draws
    # no subset.
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=1))
    state = replace(SolverState(0, np.zeros(3), np.zeros((6, 3)), np.zeros(3)), **{field: value})
    monkeypatch.setattr(type(problem.bank), "prox", lambda *args: pytest.fail("prox called"))
    rng = SplitMix64(0)
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        _STATE_ENTRY_POINTS[entry](state, problem, rng)
    assert rng.state == SplitMix64(0).state


def _outputs(out):
    """An entry point's output as a flat list of (type, dtype, value): states
    by their arrays, run's records by every field but wall_ns."""
    if isinstance(out, SolverState):
        out = [out.t, out.x, out.grad_table, out.g_avg]
    elif isinstance(out, TraceRecord):
        out = [out.t, out.dist_sq, out.lyapunov, out.table_drift]
    if isinstance(out, (list, tuple)):
        return [item for part in out for item in _outputs(part)]
    return [(type(out), getattr(out, "dtype", None), np.asarray(out).tolist())]


#: Entry points given integer or float32 inputs, each called on P with a
#: cast that maps every input array to what the call gets.
_MIXED_INPUTS = {
    "run-zeros-table": lambda p, cast: run(
        p, SolverConfig(s=2, max_iters=5, seed=1, init_gradients="zeros"), cast(np.ones(3, int))),
    "run-records": lambda p, cast: run(p, SolverConfig(s=2, max_iters=2), cast(np.ones(3, int))),
    "run-float32-x0": lambda p, cast: run(p, SolverConfig(s=2, max_iters=400, seed=1),
                                          cast(np.ones(3, np.float32))),
    "apply_subset_step": lambda p, cast: apply_subset_step(
        SolverState(0, cast(np.ones(3, int)), cast(np.zeros((6, 3), int)), cast(np.zeros(3, int))),
        p, 0.1, [0, 2]),
    "verify_one_step_contraction": lambda p, cast: verify_one_step_contraction(
        SolverState(0, cast(np.ones(3, int)), cast(np.arange(18).reshape(6, 3) - 8),
                    (np.arange(18).reshape(6, 3) - 8).mean(axis=0)),
        p, 0.3, 2, p.known_solution, p.grad_star),
    "consensus_dr_run": lambda p, cast: consensus_dr_run(
        p, 0.1, cast(np.ones(3, int)), 0.3 * np.arange(18.).reshape(6, 3), 2),
}


@pytest.mark.parametrize("entry", list(_MIXED_INPUTS))
def test_integer_and_float32_inputs_compute_as_their_float64_copies(entry):
    # Each truncated to integers, or measured from x* rounded to float32,
    # where one entry point decided a dtype of its own: run's zeros table and
    # its t = 0 record were int64, a float32 x0's run on this float64 problem
    # ended at dist_sq 2.9e-15 against 2.1e-31, apply_subset_step's new row 0
    # was [6, 1, 3], the certificate's lhs 129.229 against 131.748, and
    # consensus's iterates moved from a truncated g0.
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=1))
    call = _MIXED_INPUTS[entry]
    got = _outputs(call(problem, lambda a: a))
    assert got == _outputs(call(problem, lambda a: a.astype(np.float64)))


@pytest.mark.parametrize("entry", list(_STATE_ENTRY_POINTS))
def test_an_int64_state_computes_as_its_float64_copy(entry):
    # step and apply_subset_step returned int64 states, their table rows
    # truncated, and the certificate's lhs was scored from them.
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=1))
    table = np.arange(18).reshape(6, 3) - 8  # and g_avg its mean rounded down
    state = SolverState(0, np.ones(3, int), table, table.sum(axis=0) // 6)
    as_float = SolverState(0, *(a.astype(np.float64) for a in (state.x, state.grad_table,
                                                                 state.g_avg)))
    got = _outputs(_STATE_ENTRY_POINTS[entry](state, problem, SplitMix64(3)))
    assert got == _outputs(_STATE_ENTRY_POINTS[entry](as_float, problem, SplitMix64(3)))


@settings(max_examples=40)
@given(x0_dtype=st.sampled_from([np.int64, np.float32, np.float64, np.longdouble]),
       problem_dtype=st.sampled_from([np.float64, np.longdouble]),
       init_gradients=st.sampled_from(["at_x0", "zeros"]),
       x0=st.lists(st.integers(-5, 5), min_size=3, max_size=3),
       s=st.integers(1, 6), seed=st.integers(0, 2**64 - 1))
def test_run_works_in_the_dtype_x0_and_its_table_promote_to(x0_dtype, problem_dtype,
                                                            init_gradients, x0, s, seed):
    # The working dtype is x0's float dtype (float64 for an integer x0)
    # promoted with its initial table's, the bank's gradients at x0 (zeroed
    # or not): x0 and the problem decide it, whatever init_gradients is. The
    # run is bitwise x0's in that dtype, and so is its last Psi, scored at x*
    # in that dtype.
    problem = gen_quadratic(GeneratorSpec("quadratic", 6, 3, 1.0, 10.0, seed=2), dtype=problem_dtype)
    x0 = np.array(x0, dtype=x0_dtype)
    working = np.result_type(np.float64 if x0_dtype is np.int64 else x0_dtype, problem_dtype)
    config = SolverConfig(s=s, max_iters=12, seed=seed, trace_every=5, refresh_every=7,
                          init_gradients=init_gradients)
    final, records = got = run(problem, config, x0)
    assert final.x.dtype == final.grad_table.dtype == final.g_avg.dtype == working
    assert_same_trajectory(got, run(problem, config, x0.astype(working)))
    x_star = problem.known_solution.astype(working)
    psi = lyapunov(final, problem, x_star, problem.bank.gradients(x_star),
                   config.resolve_gamma(problem), s)
    assert records[-1].lyapunov == psi
