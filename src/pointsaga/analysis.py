"""Contraction rates, Lyapunov bookkeeping, reference solutions, and the
exhaustive one-step verifier that certifies the linear rate on small cases.

The per-iteration contraction factor is

    rho = max( 1 - 2 g mu L / (L + mu + 2 g mu L),
               1 - (2 / (g (L + mu) + 2)) * s / n )        (g = stepsize)

and the certified quantity is the weighted energy

    Psi = w_x ||x - x*||^2 + w_g sum_i ||g_i - grad f_i(x*)||^2,
    w_x = (1 + 2 g mu L / (L + mu)) * s,
    w_g = (1 + 2 / (g (L + mu))) * g^2.

Averaged over all C(n, s) equally likely subsets, one iteration maps Psi to
at most rho * Psi; `verify_one_step_contraction` computes that average
exactly by enumeration.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import solve
from .errors import (
    DimensionMismatch,
    EpsNotBelowPsi0,
    InvalidConstants,
    MaxIterations,
)
from .model import full_gradient
from .sampling import enumerate_k_subsets

#: Cap on the full-gradient passes reference_solution's descent may budget.
MAX_REFERENCE_PASSES = 10**8


def _finite(value):
    """True for a finite real number; False for inf, NaN and non-numbers."""
    try:
        return math.isfinite(value)
    except TypeError:
        return False


def _check_constants(mu, L, gamma=None, s=None, n=None):
    if not (_finite(mu) and _finite(L) and 0 < mu <= L):
        raise InvalidConstants(f"need finite 0 < mu <= L, got mu={mu}, L={L}")
    if gamma is not None and not (_finite(gamma) and gamma > 0):
        raise InvalidConstants(f"gamma must be finite and > 0, got {gamma}")
    if n is not None and n < 1:
        raise InvalidConstants(f"n must be >= 1, got {n}")
    if s is not None and not 1 <= s <= (n if n is not None else s):
        raise InvalidConstants(f"need 1 <= s <= n, got s={s}, n={n}")


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
        out = {"rho_prox": self.rho_prox, "rho_sample": self.rho_sample, "rho": self.rho}
        if self.rho_defazio is not None:
            out["rho_defazio"] = self.rho_defazio
        if self.rho_dr is not None:
            out["rho_dr"] = self.rho_dr
        return out


@dataclass
class LyapunovWeights:
    """Coefficients of the two Psi terms."""

    w_x: float
    w_g: float

    @classmethod
    def from_constants(cls, gamma, s, mu, L):
        _check_constants(mu, L, gamma=gamma)
        w_x = (1.0 + 2.0 * gamma * mu * L / (L + mu)) * s
        try:
            w_g = (1.0 + 2.0 / (gamma * (L + mu))) * gamma**2
        except OverflowError:  # float ** raises where float * returns inf
            w_g = math.inf
        if not (_finite(w_x) and _finite(w_g)):
            raise InvalidConstants(f"Lyapunov weights overflow at gamma={gamma}")
        return cls(w_x, w_g)

    def psi(self, state, x_star, grad_star):
        """Psi of the state's iterate and gradient table about the solution
        x_star, whose component gradients are the rows of grad_star. Shapes
        are not checked; lyapunov checks them."""
        d = state.x - x_star
        e = state.grad_table - grad_star
        return self.w_x * (d @ d) + self.w_g * (e * e).sum()


def theoretical_rate(gamma, s, n, mu, L):
    """Per-iteration contraction factor of E[Psi], as a RateReport."""
    _check_constants(mu, L, gamma=gamma, s=s, n=n)
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
    _check_constants(mu, L, s=s, n=n)
    try:
        gamma = math.sqrt(s / (L * mu * n))
    except ZeroDivisionError:  # L * mu * n underflows to 0
        gamma = math.inf
    if not _finite(gamma):
        raise InvalidConstants(f"balanced stepsize overflows: mu={mu}, L={L}, n={n}")
    return gamma


def iteration_complexity(gamma, s, n, mu, L, psi0, eps):
    """Iterations guaranteeing E[Psi] <= eps: log(psi0/eps) / (1 - rho).

    The exact geometric bound; eps may equal psi0 (zero iterations) but must
    not exceed it.
    """
    if not eps > 0:
        raise EpsNotBelowPsi0(f"eps must be > 0, got {eps}")
    if eps > psi0:
        raise EpsNotBelowPsi0(f"eps = {eps} exceeds psi0 = {psi0}")
    rho = theoretical_rate(gamma, s, n, mu, L).rho
    return math.log(psi0 / eps) / (1.0 - rho)


def defazio_rate(gamma, n, mu, L):
    """Comparison rate for s=1: max(1/(1+gamma mu), 1 - 1/((gamma L + 1) n))."""
    _check_constants(mu, L, gamma=gamma, n=n)
    return max(1.0 / (1.0 + gamma * mu), 1.0 - 1.0 / ((gamma * L + 1.0) * n))


def dr_rate(gamma, mu, L):
    """Comparison rate for the deterministic s=n scheme (two-operator tight)."""
    _check_constants(mu, L, gamma=gamma)
    return max(1.0 / (1.0 + gamma * mu), 1.0 - 1.0 / (gamma * L + 1.0))


def lyapunov(state, problem, x_star, grad_star, gamma, s):
    """Psi evaluated on the state's current iterate and gradient table."""
    x_star = np.asarray(x_star)
    grad_star = np.asarray(grad_star)
    if x_star.shape != (problem.dim,):
        raise DimensionMismatch(
            f"x_star has shape {x_star.shape}, expected ({problem.dim},)"
        )
    if grad_star.shape != (problem.n, problem.dim):
        raise DimensionMismatch(
            f"grad_star has shape {grad_star.shape}, "
            f"expected ({problem.n}, {problem.dim})"
        )
    w = LyapunovWeights.from_constants(gamma, s, problem.mu, problem.L)
    return w.psi(state, x_star, grad_star)


def reference_solution(problem, tol=1e-12):
    """Minimizer x of the sum, as an array of shape (dim,).

    All-quadratic problems (every component exposes ``quadratic_terms``) are
    solved directly through the stacked normal equations; anything else runs
    deterministic full-gradient descent with step 1/(nL) until the gradient
    norm reaches tol, within a budget that grows with L/mu. A condition
    number L/mu that overflows raises InvalidConstants; a budget over
    MAX_REFERENCE_PASSES, or one spent first, raises MaxIterations.
    """
    comps = problem.components
    if all(hasattr(c, "quadratic_terms") for c in comps):
        H, r = comps[0].quadratic_terms()
        H, r = H.copy(), r.copy()
        for c in comps[1:]:
            Hc, rc = c.quadratic_terms()
            H += Hc
            r += rc
        return solve(H, r)

    n, L, mu = problem.n, problem.L, problem.mu
    if not _finite(L / mu):
        raise InvalidConstants(f"condition number L/mu overflows: mu={mu}, L={L}")
    x = np.zeros(problem.dim)
    g = full_gradient(problem, x)
    g_norm = float(np.sqrt(g @ g))
    budget = 10 * (L / mu) * (math.log(max(g_norm / tol, math.e)))
    if budget + 100 > MAX_REFERENCE_PASSES:
        raise MaxIterations(f"reference solve: a budget of {budget + 100:.3g} "
                            f"passes exceeds {MAX_REFERENCE_PASSES}")
    max_iters = int(budget) + 100
    step_size = 1.0 / (n * L)
    for _ in range(max_iters):
        if g_norm <= tol:
            break
        x = x - step_size * g
        g = full_gradient(problem, x)
        g_norm = float(np.sqrt(g @ g))
    else:
        if g_norm > tol:
            raise MaxIterations(
                f"reference solve: ||grad|| = {g_norm:.3e} > {tol:g} "
                f"after {max_iters} iterations"
            )
    return x


def verify_one_step_contraction(state, problem, gamma, s, x_star, grad_star):
    """Exact subset-averaged Psi after one step versus rho * Psi(state).

    Enumerates all C(n, s) subsets, runs one deterministic iteration per
    subset, and averages Psi over the outcomes. Returns (lhs, rhs, ok) with
    ok = lhs <= rhs + 1e-9 (1 + rhs); the slack absorbs prox residuals and
    rounding in what is an exact inequality in exact arithmetic.
    """
    from .solver import apply_subset_step

    rho = theoretical_rate(gamma, s, problem.n, problem.mu, problem.L).rho
    subsets = enumerate_k_subsets(problem.n, s)
    # lyapunov checks the shapes once; each outcome is then scored with w.psi.
    rhs = rho * lyapunov(state, problem, x_star, grad_star, gamma, s)
    w = LyapunovWeights.from_constants(gamma, s, problem.mu, problem.L)
    total = 0.0
    for sub in subsets:
        nxt = apply_subset_step(state, problem, gamma, np.asarray(sub, dtype=int) - 1)
        total += w.psi(nxt, x_star, grad_star)
    lhs = total / len(subsets)
    ok = bool(lhs <= rhs + 1e-9 * (1.0 + rhs))
    return lhs, rhs, ok


def check_coercivity(f, x, y, mu, L):
    """Strong-convexity/smoothness cross inequality at one pair of points:

    <grad f(x) - grad f(y), x - y>
        >= mu L/(L+mu) ||x-y||^2 + 1/(L+mu) ||grad f(x) - grad f(y)||^2,

    up to additive slack 1e-12 (1 + ||x-y||^2) for rounding.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise DimensionMismatch(f"x has shape {x.shape}, y has shape {y.shape}")
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
    step t is mean_i w_i. Coded independently of the solver module as an
    equivalence oracle for the s = n regime.
    """
    x0 = problem.check_point(x0)
    g0 = np.asarray(g0, dtype=x0.dtype)
    u = x0[None, :] + gamma * (g0 - g0.mean(axis=0)[None, :])
    out = [x0.copy()]
    w = np.empty_like(u)
    for _ in range(iters):
        for i, comp in enumerate(problem.components):
            w[i] = comp.prox(gamma, u[i]).point
        v = (2.0 * w - u).mean(axis=0)
        u = u + v[None, :] - w
        out.append(w.mean(axis=0))
    return np.array(out)
