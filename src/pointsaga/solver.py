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

There is one iteration, _advance, which advances a state in place: it writes
the s new table rows, rebinds x and g_avg, and moves t on by one. run
advances the state that initialize (which also validates the config) builds
for it, so one of its iterations costs O(s*d) whatever n is. The public step
and apply_subset_step are pure: each advances a copy that has its own table
and returns it. run keeps the Lyapunov value's per-row table errors current
in O(s*d) per iteration, so a record scores Psi with an O(n) sum; the table
drift is still an O(n*d) pass per record (none where a refresh has just made
g_avg the table mean, and none with run(..., drift=False)), so trace_every
sets what that diagnostic costs. step and run draw the same SplitMix64 subset
stream: step one subset at a time with sampling.sample_k_subset, run many
iterations' subsets at once with sampling.sample_subsets, whose rows are
int64 (n is capped at 2^63).
Each prox row is accepted on its own residual bound, TOL_PROX * (1 + ||z_i||)
with the norm from _linalg._norms, so whether a component's prox passes does
not depend on the other rows of its subset.
Components are reached only through the problem's bank (model.ComponentBank):
the subset prox of each iteration and the n-row gradient stack of initialize
are one bank call each. run reads the gradients at the known solution from
the problem's grad_star, built once with the problem, and builds them again
(one more bank call) only for an x0 of another dtype than the known
solution's. Every family bank in problems batches the gradients, and the
prox of a subset of the size its family sets.
"""

import time
from dataclasses import dataclass

import numpy as np

from ._linalg import _norms
from .analysis import LyapunovWeights, _row_errors, optimal_stepsize
from .errors import InvalidBatchSize, InvalidConstants, ProxFailure, _finite, _integral
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
    gradients at x0) or "zeros". The sizes s, max_iters, seed, trace_every
    and refresh_every are integers (numpy integers too).
    """

    s: int = 1
    gamma: float | str = "auto"
    max_iters: int = 1000
    seed: int = 0
    trace_every: int = 1
    refresh_every: int | None = 1000
    init_gradients: str = "at_x0"

    def validate(self, n):
        for name in ("s", "max_iters", "trace_every", "refresh_every", "seed"):
            value = getattr(self, name)
            if not (_integral(value) or (name == "refresh_every" and value is None)):
                raise InvalidConstants(f"{name} must be an integer, got {value!r}")
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
    """Per-iteration diagnostics: dist_sq and lyapunov need a known solution,
    and table_drift is None where run was asked for no drift pass."""

    t: int
    dist_sq: float | None
    lyapunov: float | None
    table_drift: float | None
    wall_ns: int


def initialize(problem, config, x0):
    """Validate config and build the t=0 state: iterate x0, gradient table
    per config.init_gradients, g_avg its mean."""
    config.validate(problem.n)
    x0 = problem.check_point(x0)
    if config.init_gradients == "at_x0":
        table = problem.bank.gradients(x0)
    else:
        table = np.zeros((problem.n, problem.dim), dtype=x0.dtype)
    return SolverState(t=0, x=x0.copy(), grad_table=table, g_avg=table.mean(axis=0))


def _prop1_coeffs(n, s):
    # Numerators (over denominator n) of the exact-mean recurrence; integers
    # so no dtype rounds them. Isolated so fault-injection tests can perturb
    # them.
    return n - s, s


def _refreshes(t, refresh_every):
    """Whether iteration t ends with g_avg recomputed as the table mean."""
    return refresh_every is not None and t % refresh_every == 0


def _advance(state, problem, gamma, idx, refresh_every=None):
    """One iteration on the sorted 0-based subset idx, in place: writes the s
    new table rows, rebinds x and g_avg (a copy may share them) and moves t on.
    Returns the s prox outputs, row k the prox of component idx[k], whose
    mean is the new x. A prox residual above TOL_PROX * (1 + ||z_i||) raises
    ProxFailure, naming the first such component, the iteration and gamma,
    and leaves the state untouched. The norms are _linalg._norms': finite for
    every finite z_i, so a row's bound depends on its own z_i alone."""
    n, s = problem.n, idx.shape[0]
    x_old, g_avg, table = state.x, state.g_avg, state.grad_table

    z = x_old[None, :] + gamma * (table.take(idx, axis=0) - g_avg[None, :])
    outs, residual = problem.bank.prox(gamma, idx, z)
    ok = residual <= TOL_PROX * (1 + _norms(z))
    k = ok.argmin()  # the first failing row, if any row fails
    if not ok[k]:
        raise ProxFailure(int(idx[k]) + 1, float(residual[k]), state.t + 1, gamma)

    table[idx] = (z - outs) / gamma
    # The means are mean(axis=0)'s own sum and division, without the wrapper
    # whose checks cost more than the reduction on an iteration's few rows.
    # At d = 1 numpy adds the rows pairwise, not in index order (see
    # _linalg._sum_rows); the certificate's mean rounds the same way.
    state.x = np.add.reduce(outs, axis=0) / s
    state.t += 1
    if _refreshes(state.t, refresh_every):
        state.g_avg = np.add.reduce(table, axis=0) / n
    else:
        c_keep, c_move = _prop1_coeffs(n, s)
        # Integer coefficients and divisions in the array dtype: pre-rounding
        # s/(n*gamma) in float64 would freeze an absolute error at the iterate
        # scale into g_avg (the recurrence conserves g_avg - mean(table)).
        state.g_avg = (c_keep * g_avg + c_move * ((x_old - state.x) / gamma)) / n
    return outs


def apply_subset_step(state, problem, gamma, indices0):
    """One deterministic iteration given the 0-based subset to activate.

    Pure: advances a copy (its own table, the input's x and g_avg, which
    _advance only rebinds) and returns it, leaving the input untouched.
    """
    nxt = SolverState(state.t, state.x, state.grad_table.copy(), state.g_avg)
    _advance(nxt, problem, gamma, np.asarray(indices0, dtype=int))
    return nxt


def step(state, problem, config, rng, gamma):
    """Draw the iteration's subset, run one step at stepsize gamma, and maybe
    refresh g_avg. Draws one subset with sample_k_subset, the same stream run
    draws in blocks.

    gamma is the resolved stepsize (see SolverConfig.resolve_gamma); config
    supplies s and the refresh cadence. Pure, like apply_subset_step: the
    input state is left untouched.
    """
    idx0 = np.asarray(sample_k_subset(rng, problem.n, config.s), dtype=int) - 1
    nxt = SolverState(state.t, state.x, state.grad_table.copy(), state.g_avg)
    _advance(nxt, problem, gamma, idx0, config.refresh_every)
    return nxt


def table_drift(state):
    """||g_avg - exact table mean||: floating-point drift of the recurrence."""
    diff = state.g_avg - state.grad_table.mean(axis=0)
    return np.sqrt(diff @ diff)


def run(problem, config, x0, *, drift=True):
    """Iterate from x0 for config.max_iters iterations.

    initialize validates config and builds the state, and every iteration
    advances it in place through _advance, the one iteration step and
    apply_subset_step also run: an iteration costs O(s*d) whatever n is.
    A gamma whose Lyapunov weights overflow a Psi(0) with finite terms raises
    InvalidConstants before any iteration. The per-row table errors
    of the Lyapunov value are recomputed for the s rows each iteration
    writes, so a record scores Psi with an O(n) sum. The table drift is an
    O(n*d) pass made only when a record is written, and skipped where a
    refresh has just made g_avg the table mean, so trace_every sets what it
    costs; with drift=False no record makes it. The row errors and the
    records are taken under one overflow scope per iteration, so a
    diagnostic past the dtype's range reads inf or NaN, without a warning.
    The subsets are the stream step draws, taken from SplitMix64 in blocks of
    at most SUBSET_BLOCK draws by sampling.sample_subsets as int64 rows.

    Parameters
    ----------
    problem : FiniteSumProblem
    config : SolverConfig
        config.s, stepsize, budget, seed, trace cadence.
    x0 : ndarray
        Starting point; its dtype sets the working precision of the run.
    drift : bool, keyword-only
        Whether records carry the table drift; without it every record's
        table_drift is None and the run is otherwise the same.

    Returns
    -------
    (SolverState, list of TraceRecord)
        Final state and diagnostics recorded at t=0, every trace_every
        iterations, and the final iteration. dist_sq and lyapunov fields are
        filled only when the problem has a known solution.
    """
    state = initialize(problem, config, x0)
    gamma = config.resolve_gamma(problem)
    rng = SplitMix64(config.seed)

    x_star = problem.known_solution
    if x_star is not None:
        x_star = np.asarray(x_star)
        if x_star.dtype == state.x.dtype:
            grad_star = problem.grad_star
        else:  # the kept table is at x*'s own dtype: build one at the run's
            x_star = x_star.astype(state.x.dtype)
            grad_star = problem.bank.gradients(x_star)
        weights = LyapunovWeights.from_constants(gamma, config.s, problem.mu, problem.L)

    def record():
        dist_sq = lyap = drift_norm = None
        if x_star is not None:
            d = state.x - x_star
            dist_sq = d @ d
            lyap = weights.score(dist_sq, row_errors)
        if drift:
            # Where g_avg is this very table mean (initialize's or a
            # refresh's), the pass would subtract equal arrays: +0.0
            # unless it is not finite.
            is_mean = state.t == 0 or _refreshes(state.t, config.refresh_every)
            if is_mean and np.isfinite(state.g_avg).all():
                drift_norm = state.g_avg.dtype.type(0.0)
            else:
                drift_norm = table_drift(state)
        records.append(TraceRecord(t=state.t, dist_sq=dist_sq, lyapunov=lyap,
                                   table_drift=drift_norm,
                                   wall_ns=time.perf_counter_ns() - t_begin))

    records = []
    # The row errors and the records are taken under one overflow scope per
    # iteration: a diagnostic past the dtype's range reads inf (or NaN), as a
    # record of a diverging run should, rather than raising a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if x_star is not None:
            row_errors = _row_errors(state.grad_table, grad_star)
        t_begin = time.perf_counter_ns()
        record()
        # Weights at this gamma that overflow Psi(0) although both its terms
        # are finite would make every record inf; an x0 that overflows a term
        # on its own is left to the records.
        first = records[0]
        if (x_star is not None and not np.isfinite(first.lyapunov)
                and np.isfinite((first.dist_sq, row_errors.sum())).all()):
            raise InvalidConstants(f"Psi at t=0 overflows at gamma={gamma!r}")
    per_block = max(1, SUBSET_BLOCK // config.s)
    while state.t < config.max_iters:
        block = sample_subsets(rng, problem.n, config.s,
                               min(per_block, config.max_iters - state.t))
        for idx in block:
            _advance(state, problem, gamma, idx, config.refresh_every)
            with np.errstate(over="ignore", invalid="ignore"):
                if x_star is not None:  # take: a cheaper gather than table[idx]
                    row_errors[idx] = _row_errors(state.grad_table.take(idx, axis=0),
                                                  grad_star.take(idx, axis=0))
                if state.t % config.trace_every == 0 or state.t == config.max_iters:
                    record()
    return state, records
