"""The minibatch proximal incremental iteration with O(1)-amortized averaging.

One iteration draws a subset of s components, proxes each one at a shifted
point built from the gradient table, averages the prox outputs into the new
iterate, and refreshes the table entries using only prox outputs (the
resolvent identity recovers the gradients, so no gradient oracle is called
inside the loop). The running table average is maintained by the exact
two-term recurrence

    g_avg <- (n-s)/n * g_avg + s/(n*gamma) * (x_old - x_new),

which equals the true table mean in exact arithmetic; a periodic exact
recomputation bounds floating-point drift.

The public step and apply_subset_step are pure: each copies the table once
and returns a fresh state. run owns the state that initialize builds for it
and advances it, table included, in place, so one of its iterations costs
O(s*d) whatever n is. It keeps the Lyapunov value's per-row table errors
current in O(s*d) per iteration, so a record scores Psi with an O(n) sum;
the table drift is still an O(n*d) pass per record (none where a refresh has
just made g_avg the table mean), so trace_every sets what that diagnostic
costs. step and run draw the same SplitMix64 subset stream: step one subset
at a time with sampling.sample_k_subset, run many iterations' subsets at once
with sampling.sample_subsets.
Components are reached only through the problem's bank (model.ComponentBank):
the subset prox of each iteration, and the n-row gradient stacks of
initialize and of run's grad_star, are one bank call each. Every family bank
in problems batches the gradients, and QuadraticBank and LogisticBank the
prox as well.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBatchSize, InvalidConstants, ProxFailure
from .prox import TOL_PROX
from .sampling import SplitMix64, sample_k_subset, sample_subsets

#: Most subset draws run takes from one sample_subsets call (read at call
#: time), so the drawn subsets take memory independent of max_iters * s.
SUBSET_BLOCK = 4096


@dataclass
class SolverConfig:
    """Run parameters.

    gamma may be the string "auto", which resolves to the balanced stepsize
    sqrt(s / (L mu n)) at run time. run always takes max_iters iterations.
    refresh_every=None disables the periodic exact recomputation of the table
    average. init_gradients picks the initial table: "at_x0" (component
    gradients at x0) or "zeros".
    """

    s: int = 1
    gamma: float | str = "auto"
    max_iters: int = 1000
    seed: int = 0
    trace_every: int = 1
    refresh_every: int | None = 1000
    init_gradients: str = "at_x0"

    def validate(self, n):
        from .analysis import _finite

        if not 1 <= self.s <= n:
            raise InvalidBatchSize(f"need 1 <= s <= n, got s={self.s}, n={n}")
        if self.gamma != "auto" and not (_finite(self.gamma) and self.gamma > 0):
            raise InvalidConstants(
                f"gamma must be finite and > 0 or 'auto', got {self.gamma!r}"
            )
        if self.max_iters < 0:
            raise InvalidConstants("max_iters must be >= 0")
        if self.trace_every < 1:
            raise InvalidConstants("trace_every must be >= 1")
        if self.refresh_every is not None and self.refresh_every < 1:
            raise InvalidConstants("refresh_every must be >= 1 or None")
        if self.init_gradients not in ("at_x0", "zeros"):
            raise InvalidConstants(f"unknown init_gradients {self.init_gradients!r}")
        # SplitMix64 keeps 64 bits: any other seed would run another seed's stream.
        if not 0 <= self.seed < 1 << 64:
            raise InvalidConstants(f"seed must be in [0, 2^64), got {self.seed}")

    def resolve_gamma(self, problem):
        if self.gamma == "auto":
            from .analysis import optimal_stepsize

            return optimal_stepsize(self.s, problem.n, problem.mu, problem.L)
        return float(self.gamma)


@dataclass
class SolverState:
    """Iterate, gradient table (one row per component), and its running mean."""

    t: int
    x: np.ndarray
    grad_table: np.ndarray
    g_avg: np.ndarray


@dataclass
class TraceRecord:
    """Per-iteration diagnostics: dist_sq and lyapunov need a known solution."""

    t: int
    dist_sq: float | None
    lyapunov: float | None
    table_drift: float
    wall_ns: int


def initialize(problem, config, x0):
    """Build the t=0 state: iterate x0, gradient table per init_gradients."""
    x0 = problem.check_point(x0)
    if config.init_gradients == "at_x0":
        table = problem.bank.gradients(x0)
    elif config.init_gradients == "zeros":
        table = np.zeros((problem.n, problem.dim), dtype=x0.dtype)
    else:
        raise InvalidConstants(f"unknown init_gradients {config.init_gradients!r}")
    return SolverState(t=0, x=x0.copy(), grad_table=table, g_avg=table.mean(axis=0))


def _prop1_coeffs(n, s):
    # Numerators (over denominator n) of the exact-mean recurrence; integers
    # so no dtype rounds them. Isolated so fault-injection tests can perturb
    # them.
    return n - s, s


def _advance(state, problem, gamma, idx, table):
    """The iteration's arithmetic: writes the s new rows into ``table`` and
    returns (x_new, g_new). ``table`` is either state.grad_table itself or a
    copy of it; the subset rows are read before any row is written."""
    s = idx.shape[0]
    n = problem.n
    x_old, g_avg = state.x, state.g_avg

    z = x_old[None, :] + gamma * (table.take(idx, axis=0) - g_avg[None, :])
    bound = TOL_PROX * (1 + np.sqrt((z * z).sum(axis=1)))
    outs, residual = problem.bank.prox(gamma, idx, z)
    ok = residual <= bound
    k = ok.argmin()  # the first failing row, if any row fails
    if not ok[k]:
        raise ProxFailure(int(idx[k]) + 1, float(residual[k]), state.t + 1, gamma)

    table[idx] = (z - outs) / gamma
    x_new = outs.mean(axis=0)  # idx is sorted: ascending-index reduction
    c_keep, c_move = _prop1_coeffs(n, s)
    # Integer coefficients and divisions in the array dtype: pre-rounding
    # s/(n*gamma) in float64 would freeze an absolute error at the iterate
    # scale into g_avg (the recurrence conserves g_avg - mean(table)).
    g_new = (c_keep * g_avg + c_move * ((x_old - x_new) / gamma)) / n
    return x_new, g_new


def apply_subset_step(state, problem, gamma, indices0):
    """One deterministic iteration given the 0-based subset to activate.

    Pure: returns a fresh state, leaving the input untouched. The residual of
    every prox output is checked against TOL_PROX * (1 + ||z_i||); a breach
    raises ProxFailure naming the component, the iteration and gamma.
    """
    table = state.grad_table.copy()
    idx = np.asarray(indices0, dtype=int)
    x_new, g_new = _advance(state, problem, gamma, idx, table)
    return SolverState(t=state.t + 1, x=x_new, grad_table=table, g_avg=g_new)


def _step(state, problem, config, gamma, idx0, table):
    """Advance on the 0-based subset idx0 and maybe refresh, writing into
    ``table`` (a copy of state.grad_table, or run's own table); returns
    (x_new, g_new, refreshed), refreshed telling whether g_new is the table
    mean."""
    x_new, g_new = _advance(state, problem, gamma, idx0, table)
    refreshed = config.refresh_every is not None and (state.t + 1) % config.refresh_every == 0
    if refreshed:
        g_new = table.mean(axis=0)
    return x_new, g_new, refreshed


def step(state, problem, config, rng, gamma):
    """Draw the iteration's subset, run one step at stepsize gamma, and maybe
    refresh g_avg. Draws one subset with sample_k_subset, the same stream run
    draws in blocks.

    gamma is the resolved stepsize (see SolverConfig.resolve_gamma); config
    supplies s and the refresh cadence. Pure, like apply_subset_step: the
    input state is left untouched.
    """
    table = state.grad_table.copy()
    idx0 = np.asarray(sample_k_subset(rng, problem.n, config.s), dtype=int) - 1
    x_new, g_new, _ = _step(state, problem, config, gamma, idx0, table)
    return SolverState(t=state.t + 1, x=x_new, grad_table=table, g_avg=g_new)


def table_drift(state):
    """||g_avg - exact table mean||: floating-point drift of the recurrence."""
    diff = state.g_avg - state.grad_table.mean(axis=0)
    return np.sqrt(diff @ diff)


def run(problem, config, x0):
    """Iterate from x0 for config.max_iters iterations.

    run advances the state that initialize builds for it, table included, in
    place: an iteration costs O(s*d) whatever n is. The per-row table errors
    of the Lyapunov value are recomputed for the s rows each iteration
    writes, so a record scores Psi with an O(n) sum. The table drift is an
    O(n*d) pass made only when a record is written, and skipped where a
    refresh has just made g_avg the table mean, so trace_every sets what it
    costs. The subsets are the stream step draws, taken from SplitMix64 in
    blocks of at most SUBSET_BLOCK draws by sampling.sample_subsets.

    Parameters
    ----------
    problem : FiniteSumProblem
    config : SolverConfig
        config.s, stepsize, budget, seed, trace cadence.
    x0 : ndarray
        Starting point; its dtype sets the working precision of the run.

    Returns
    -------
    (SolverState, list of TraceRecord)
        Final state and diagnostics recorded at t=0, every trace_every
        iterations, and the final iteration. dist_sq and lyapunov fields are
        filled only when the problem has a known solution.
    """
    config.validate(problem.n)
    gamma = config.resolve_gamma(problem)
    rng = SplitMix64(config.seed)
    state = initialize(problem, config, x0)

    x_star = problem.known_solution
    if x_star is not None:
        from .analysis import LyapunovWeights, _row_errors

        x_star = np.asarray(x_star, dtype=state.x.dtype)
        grad_star = problem.bank.gradients(x_star)
        weights = LyapunovWeights.from_constants(gamma, config.s, problem.mu, problem.L)
        row_errors = _row_errors(state.grad_table, grad_star)

    t_begin = time.perf_counter_ns()

    def record(st, is_mean):
        dist_sq = lyap = None
        if x_star is not None:
            d = st.x - x_star
            dist_sq = d @ d
            # LyapunovWeights.psi's formula, on the kept row errors.
            lyap = weights.w_x * dist_sq + weights.w_g * row_errors.sum()
        # Where g_avg is this very table mean, the drift pass would subtract
        # equal arrays: +0.0 unless the mean is not finite.
        if is_mean and np.isfinite(st.g_avg).all():
            drift = st.g_avg.dtype.type(0.0)
        else:
            drift = table_drift(st)
        records.append(TraceRecord(t=st.t, dist_sq=dist_sq, lyapunov=lyap,
                                   table_drift=drift,
                                   wall_ns=time.perf_counter_ns() - t_begin))

    records = []
    record(state, True)  # initialize sets g_avg to the table mean
    table = state.grad_table
    per_block = max(1, SUBSET_BLOCK // config.s)
    while state.t < config.max_iters:
        block = sample_subsets(rng, problem.n, config.s,
                               min(per_block, config.max_iters - state.t))
        for idx in block:
            state.x, state.g_avg, refreshed = _step(state, problem, config, gamma, idx, table)
            state.t += 1
            if x_star is not None:  # take: a cheaper gather than table[idx]
                row_errors[idx] = _row_errors(table.take(idx, axis=0),
                                              grad_star.take(idx, axis=0))
            if state.t % config.trace_every == 0 or state.t == config.max_iters:
                record(state, refreshed)
    return state, records
