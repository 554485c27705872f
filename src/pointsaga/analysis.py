"""Contraction rates, Lyapunov bookkeeping, reference solutions, and the
exhaustive one-step verifier that certifies the linear rate on small cases.

The per-iteration contraction factor is

    rho = max( 1 - 2 g mu L / (L + mu + 2 g mu L),
               1 - (2 / (g (L + mu) + 2)) * s / n )        (g = stepsize)

and the certified quantity is the weighted energy

    Psi = w_x ||x - x*||^2 + w_g sum_i ||g_i - grad f_i(x*)||^2,
    w_x = (1 + 2 g mu L / (L + mu)) * s,
    w_g = (1 + 2 / (g (L + mu))) * g^2.

The table term is numpy's sum of the per-row squared errors
r_i = ||g_i - grad f_i(x*)||^2, each a 1-d dot. LyapunovWeights.score is the
one copy of the formula, so solver.run_many, which recomputes r_i only for
the rows an iteration writes, scores every record bitwise as `lyapunov` does.

Averaged over all C(n, s) equally likely subsets, one iteration maps Psi to
at most rho * Psi; `verify_one_step_contraction` computes that average
exactly by enumeration. A component's prox and new table row from a fixed
state do not depend on the subset that holds it, so the certificate costs n
proxes plus O(C(n, s) * (s * d + n)) vector arithmetic, not C(n, s)
iterations.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._linalg import _dots, solve
from .errors import (
    EpsNotBelowPsi0,
    InvalidConstants,
    MaxIterations,
    _check_constants,
    _finite,
    _integral,
)
from .model import _check_array, _check_state, full_gradient
from .sampling import subset_rows

#: Newton steps reference_solution takes before MaxIterations, and the step
#: halvings after which it takes x to be at the rounding floor.
NEWTON_STEPS, HALVINGS = 100, 60

#: Most entries of a block that _row_errors (a table difference) or
#: gen_quadratic (a stacked QR) builds at once. A run keeps grad_star beside
#: its table; a whole n-by-d difference on top of both raised the peak RSS of
#: an n = 20000, d = 50 ridge run from 88.1 to 94.8 MB (2-core x86 VM, numpy 2.4).
ROW_BLOCK_ENTRIES = 1 << 16


@dataclass
class RateReport:
    """Contraction factor rho and its two constituents, plus comparison rates.

    rho_defazio is populated only for s=1, rho_dr only for s=n (the two
    regimes with published rates to compare against).
    """

    rho_prox: float
    rho_sample: float
    rho: float
    rho_defazio: float | None = None
    rho_dr: float | None = None

    def to_dict(self):
        return {k: v for k, v in asdict(self).items() if v is not None}


@dataclass
class LyapunovWeights:
    """Coefficients of the two Psi terms."""

    w_x: float
    w_g: float

    @classmethod
    def from_constants(cls, gamma, s, mu, L):
        mu, L, gamma = _check_constants(mu, L, gamma=gamma)
        w_x = (1.0 + 2.0 * gamma * mu * L / (L + mu)) * s
        try:
            w_g = (1.0 + 2.0 / (gamma * (L + mu))) * gamma**2
        except OverflowError:  # float ** raises where float * returns inf
            w_g = math.inf
        if not (_finite(w_x) and _finite(w_g)):
            raise InvalidConstants(f"Lyapunov weights overflow at gamma={gamma}")
        return cls(w_x, w_g)

    def score(self, dist_sq, row_errors):
        """Psi from ||x - x*||^2 and the per-row table errors, which are
        summed over their last axis: a stack of states scores elementwise."""
        return self.w_x * dist_sq + self.w_g * row_errors.sum(axis=-1)

    def psi(self, state, x_star, grad_star):
        """Psi of the state's iterate and gradient table about the solution
        x_star, whose component gradients are the rows of grad_star. Shapes
        are not checked; lyapunov checks them."""
        d = state.x - x_star
        return self.score(d @ d, _row_errors(state.grad_table, grad_star))


def _row_errors(table, grad_star):
    """The per-row squared errors ||table[i] - grad_star[i]||^2 of Psi. Past
    ROW_BLOCK_ENTRIES entries they are taken over blocks of rows, so no
    n-by-d difference is built; each row's dot is its own, so the blocks
    change no bit."""
    if table.size <= ROW_BLOCK_ENTRIES:
        e = table - grad_star
        return _dots(e, e)
    rows = max(1, ROW_BLOCK_ENTRIES // table.shape[1])
    blocks = (table[k:k + rows] - grad_star[k:k + rows] for k in range(0, len(table), rows))
    return np.concatenate([_dots(e, e) for e in blocks])


def theoretical_rate(gamma, s, n, mu, L):
    """Per-iteration contraction factor of E[Psi], as a RateReport."""
    mu, L, gamma = _check_constants(mu, L, gamma=gamma, s=s, n=n)
    rho_prox = 1.0 - 2.0 * gamma * mu * L / (L + mu + 2.0 * gamma * mu * L)
    if not _finite(rho_prox):  # 2 gamma mu L overflows: inf / inf
        raise InvalidConstants(f"rate overflows at gamma={gamma}, mu={mu}, L={L}")
    rho_sample = 1.0 - 2.0 / (gamma * (L + mu) + 2.0) * s / n
    report = RateReport(rho_prox, rho_sample, max(rho_prox, rho_sample))
    if s == 1:
        report.rho_defazio = defazio_rate(gamma, n, mu, L)
    if s == n:
        report.rho_dr = dr_rate(gamma, mu, L)
    return report


def optimal_stepsize(s, n, mu, L):
    """Stepsize sqrt(s / (L mu n)) balancing the two rate terms."""
    mu, L, _ = _check_constants(mu, L, s=s, n=n)
    try:
        gamma = math.sqrt(s / (L * mu * n))
    except ZeroDivisionError:  # L * mu * n underflows to 0
        gamma = math.inf
    if not _finite(gamma):
        raise InvalidConstants(f"balanced stepsize overflows: mu={mu}, L={L}, n={n}")
    return gamma


def iteration_complexity(gamma, s, n, mu, L, psi0, eps):
    """Iterations guaranteeing E[Psi] <= eps: log(psi0/eps) / (1 - rho).

    The exact geometric bound; psi0 and eps are finite, and eps may equal
    psi0 (zero iterations) but must not exceed it.
    """
    if not (_finite(psi0) and _finite(eps) and eps > 0):
        raise EpsNotBelowPsi0(f"need finite psi0 and eps > 0, got psi0={psi0}, eps={eps}")
    if eps > psi0:
        raise EpsNotBelowPsi0(f"eps = {eps} exceeds psi0 = {psi0}")
    rho = theoretical_rate(gamma, s, n, mu, L).rho
    return math.log(psi0 / eps) / (1.0 - rho)


def defazio_rate(gamma, n, mu, L):
    """Comparison rate for s=1: max(1/(1+gamma mu), 1 - 1/((gamma L + 1) n))."""
    mu, L, gamma = _check_constants(mu, L, gamma=gamma, n=n)
    return max(1.0 / (1.0 + gamma * mu), 1.0 - 1.0 / ((gamma * L + 1.0) * n))


def dr_rate(gamma, mu, L):
    """Comparison rate for the deterministic s=n scheme (two-operator tight)."""
    mu, L, gamma = _check_constants(mu, L, gamma=gamma)
    return max(1.0 / (1.0 + gamma * mu), 1.0 - 1.0 / (gamma * L + 1.0))


def lyapunov(state, problem, x_star, grad_star, gamma, s):
    """Psi evaluated on the state's current iterate and gradient table. The
    constants are checked first: gamma (InvalidConstants) and s, which must
    be a batch size of the problem (InvalidBatchSize); then the arrays are
    admitted, and Psi computed on what _admitted returns."""
    _check_constants(problem.mu, problem.L, gamma=gamma, s=s, n=problem.n)
    state, x_star, grad_star = _admitted(state, problem, x_star, grad_star)
    w = LyapunovWeights.from_constants(gamma, s, problem.mu, problem.L)
    return w.psi(state, x_star, grad_star)


def _admitted(state, problem, x_star, grad_star):
    """(state, x_star (dim,), grad_star (n, dim)) as model admits them, in order."""
    return (_check_state(state, problem), _check_array(x_star, (problem.dim,), "x_star"),
            _check_array(grad_star, (problem.n, problem.dim), "grad_star"))


def reference_solution(problem, tol=1e-12):
    """Minimizer of the sum, shape (dim,), by damped Newton from 0 on the bank's
    Hessian sum. The first step is taken whole: on a quadratic, the direct
    solve. Later steps, while ||grad|| > tol, halve from length 1 until ||grad||
    falls, or return x at the rounding floor after HALVINGS halvings. Raises
    InvalidConstants when L/mu, the gradient or the Hessian overflows,
    MaxIterations after NEWTON_STEPS steps, and InvalidSpec when a component
    of the default bank has no ``hessian``.
    """
    mu, L = problem.mu, problem.L
    if not _finite(L / mu):
        raise InvalidConstants(f"condition number L/mu overflows: mu={mu}, L={L}")
    x, g_norm = np.zeros(problem.dim), np.inf  # inf: the first step is taken whole
    with np.errstate(over="ignore", invalid="ignore"):
        g = full_gradient(problem, x)
        for _ in range(NEWTON_STEPS):
            H = problem.bank.hessian_sum(x)
            if not (np.isfinite(g).all() and np.isfinite(H).all()):
                raise InvalidConstants(f"mu={mu:g}, L={L:g}: Hessian or gradient overflows")
            p = solve(H, g)
            for t in 0.5 ** np.arange(HALVINGS):
                x_new = x - t * p
                g_new = full_gradient(problem, x_new)
                g_new_norm = np.sqrt(g_new @ g_new)
                if g_new_norm < g_norm:
                    break
            else:
                return x
            x, g, g_norm = x_new, g_new, g_new_norm
            if g_norm <= tol:
                return x
    raise MaxIterations(f"reference solve: ||grad|| = {g_norm:.3e} > {tol:g} "
                        f"after {NEWTON_STEPS} Newton steps")


def verify_one_step_contraction(state, problem, gamma, s, x_star, grad_star):
    """Exact subset-averaged Psi after one step versus rho * Psi(state).

    From a fixed state, component i's shifted point, its prox and its new
    table row are the same in every subset that holds i. So one copy of the
    state is advanced through solver._advance on all n components, one bank
    call of n proxes, and each of the C(n, s) subsets is scored from those
    rows: its iterate is the ascending-index mean of its s proxes, and its
    table keeps the input's rows outside it. Scored in blocks of at most
    SUBSET_BLOCK // n rows of one 0-based index array, it costs n proxes plus
    O(C(n, s) * (s * d + n)) vector arithmetic, and the average is still
    exact by enumeration: Psi of every subset's outcome, bitwise what one
    iteration on that subset gives, summed in lexicographic order. Returns
    (lhs, rhs, ok) with ok = lhs <= rhs + 1e-9 (1 + rhs); the slack absorbs
    prox residuals and rounding in what is an exact inequality in exact
    arithmetic. The input state is left untouched.

    Checks run in this order: the subset count (InvalidBatchSize,
    EnumerationTooLarge), then the rate's constants, at whose float gamma it
    steps, then lyapunov's checks of the state, x_star and grad_star, whose
    returned arrays it computes on, and the Lyapunov weights, all before any
    prox. A row's prox bound depends on that row alone, so ProxFailure names
    the lowest failing component, at iteration state.t + 1, as the first
    enumerated subset that holds it would. An error the bank raises for any
    row, such as MaxInnerIterations, precedes another row's residual failure.
    """
    from .solver import SUBSET_BLOCK, _advanced_copy

    n = problem.n
    subsets = subset_rows(n, s)
    rho = theoretical_rate(gamma, s, n, problem.mu, problem.L).rho
    _, _, gamma = _check_constants(problem.mu, problem.L, gamma=gamma)
    state, x_star, grad_star = _admitted(state, problem, x_star, grad_star)
    w = LyapunovWeights.from_constants(gamma, s, problem.mu, problem.L)
    rhs = rho * w.psi(state, x_star, grad_star)  # lyapunov's Psi
    nxt, P = _advanced_copy(state, problem, gamma, np.arange(n))
    kept = _row_errors(state.grad_table, grad_star)
    moved = _row_errors(nxt.grad_table, grad_star)
    per_block = max(1, SUBSET_BLOCK // n)
    total = 0.0
    for start in range(0, len(subsets), per_block):
        S = subsets[start:start + per_block]
        dx = np.add.reduce(P[S], axis=1) / S.shape[1] - x_star  # _advance's mean
        errors = np.repeat(kept[None, :], len(S), axis=0)
        np.put_along_axis(errors, S, moved[S], axis=1)
        psi = w.score(_dots(dx, dx), errors)
        # Added on in enumeration order, in psi's dtype: accumulate is a
        # sequential sum, so total is what adding one subset at a time gives.
        psi[0] += total
        total = np.add.accumulate(psi)[-1]
    lhs = total / len(subsets)
    ok = bool(lhs <= rhs + 1e-9 * (1.0 + rhs))
    return lhs, rhs, ok


def check_coercivity(f, x, y, mu, L):
    """Strong-convexity/smoothness cross inequality at one pair of points:

    <grad f(x) - grad f(y), x - y>
        >= mu L/(L+mu) ||x-y||^2 + 1/(L+mu) ||grad f(x) - grad f(y)||^2,

    up to additive slack 1e-12 (1 + ||x-y||^2) for rounding. mu and L are
    checked first: InvalidConstants unless finite 0 < mu <= L. It computes
    on x and y (y at x's shape) as model._check_array admits them.
    """
    mu, L, _ = _check_constants(mu, L)
    x = _check_array(x, None, "x")
    y = _check_array(y, x.shape, "y")
    dg = f.gradient(x) - f.gradient(y)
    dx = x - y
    lhs = dg @ dx
    rhs = mu * L / (L + mu) * (dx @ dx) + 1.0 / (L + mu) * (dg @ dg)
    return bool(lhs >= rhs - 1e-12 * (1.0 + dx @ dx))


def consensus_dr_run(problem, gamma, x0, g0, iters):
    """Reference trajectory from the splitting reformulation on the product
    space: min sum_i f_i(x_i) subject to x_1 = ... = x_n.

    Maintains one auxiliary point u_i per component, alternating the
    component proxes with the projection onto the consensus subspace:

        w_i <- prox_{gamma f_i}(u_i)
        v   <- mean_i (2 w_i - u_i)
        u_i <- u_i + v - w_i

    started from u_i = x0 + gamma (g0_i - mean(g0)). The reported iterate at
    step t is mean_i w_i. An iteration's n proxes are one call of the
    problem's bank. Coded independently of the solver module as an
    equivalence oracle for the s = n regime. gamma, iters (an integer
    >= 0, else InvalidConstants), x0 (problem.check_point) and g0 (which
    model._check_array admits at shape (n, dim)) are checked before any
    prox, and it computes on what the checks return.
    """
    _, _, gamma = _check_constants(problem.mu, problem.L, gamma=gamma)
    if not (_integral(iters) and iters >= 0):
        raise InvalidConstants(f"iters must be an integer >= 0, got {iters!r}")
    x0 = problem.check_point(x0)
    g0 = _check_array(g0, (problem.n, problem.dim), "g0")
    u = x0[None, :] + gamma * (g0 - g0.mean(axis=0)[None, :])
    out = [x0.copy()]
    idx = np.arange(problem.n)
    for _ in range(iters):
        w = problem.bank.prox(gamma, idx, u)[0]
        v = (2.0 * w - u).mean(axis=0)
        u = u + v[None, :] - w
        out.append(w.mean(axis=0))
    return np.array(out)
