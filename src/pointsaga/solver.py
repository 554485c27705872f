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

There is one iteration, _advance, which advances K trajectories of one
problem together, in place: one row of x and g_avg each, and their gradient
tables one after another in one array (a _Stack). Each iteration proxes the
union of their subsets in one bank call, each row at its own trajectory's
stepsize, writes the union's table rows, rebinds x and g_avg, and moves t
on by one. A trajectory's arithmetic touches only its own rows, so each
advances bitwise as it would alone. run_many advances the trajectories of
configs that share a budget and cadences, from the state that initialize
(which also validates the config) builds; run is its one-config case, so
one iteration costs O(s*d) per trajectory whatever n is. Their diagnostics
and SplitMix64 subset streams, which step draws one subset at a time, are
described in run_many. The public step and apply_subset_step are pure: each
advances a one-trajectory copy that has its own table and returns it.
Components are reached only through the problem's bank
(model.ComponentBank): the union prox of each iteration and the n-row
gradient stack of initialize are one bank call each, and run_many reads
the gradients at the known solution from the problem's grad_star, built
once with the problem.
"""

import itertools
import time
from dataclasses import dataclass

import numpy as np

from ._linalg import _norms, _per_row
from .analysis import LyapunovWeights, _row_errors, optimal_stepsize
from .errors import (InvalidBatchSize, InvalidConstants, ProxFailure, _check_constants,
                     _integral)
from .model import _check_state
from .prox import TOL_PROX
from .sampling import SplitMix64, sample_k_subset, sample_subsets

#: Most subset draws run_many takes from its trajectories' sample_subsets
#: calls for one block of iterations (read at call time), so the drawn
#: subsets take memory independent of max_iters * s.
SUBSET_BLOCK = 4096


@dataclass
class SolverConfig:
    """Run parameters.

    gamma may be the string "auto", which resolves to the balanced stepsize
    sqrt(s / (L mu n)) at run time. run always takes max_iters iterations.
    refresh_every=None disables the periodic exact recomputation of the table
    average. init_gradients picks the initial table: "at_x0" (component
    gradients at x0) or "zeros", both in the dtype of those gradients. The
    sizes s, max_iters, seed, trace_every and refresh_every are integers
    (numpy integers too); validate checks them against a problem.
    """

    s: int = 1
    gamma: float | str = "auto"
    max_iters: int = 1000
    seed: int = 0
    trace_every: int = 1
    refresh_every: int | None = 1000
    init_gradients: str = "at_x0"

    def validate(self, problem):
        """Check the config for problem: s and gamma in the rate's one
        errors._check_constants call (InvalidBatchSize for s, InvalidConstants
        for gamma), every other setting here (InvalidConstants)."""
        for name in ("max_iters", "trace_every", "refresh_every", "seed"):
            value = getattr(self, name)
            if not (_integral(value) or (name == "refresh_every" and value is None)):
                raise InvalidConstants(f"{name} must be an integer, got {value!r}")
        _check_constants(problem.mu, problem.L, s=self.s, n=problem.n,
                         gamma=None if self.gamma == "auto" else self.gamma)
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
    """Validate config and build the t=0 state: iterate x0 as check_point
    returns it, table the bank's gradients at x0, zeroed for init_gradients
    "zeros", and g_avg its mean. So x0 and the problem decide a run's dtype."""
    config.validate(problem)
    x0 = problem.check_point(x0)
    table = problem.bank.gradients(x0)
    if config.init_gradients == "zeros":
        table = np.zeros_like(table)
    return SolverState(t=0, x=x0.copy(), grad_table=table, g_avg=table.mean(axis=0))


def _prop1_coeffs(n, s):
    # Numerators (over denominator n) of the exact-mean recurrence; integers
    # so no dtype rounds them. Isolated so fault-injection tests can perturb
    # them.
    return n - s, s


def _refreshes(t, refresh_every):
    """Whether iteration t ends with g_avg recomputed as the table mean."""
    return refresh_every is not None and t % refresh_every == 0


def _shared(values, rows=None):
    """values[0] where every value equals it, else the values as an array,
    the entry of each of rows if given: a value all trajectories share stays
    the scalar it is, so one trajectory computes what it did alone."""
    if values.count(values[0]) == len(values):
        return values[0]
    values = np.array(values)
    return values if rows is None else values[rows]


#: The parts of a one-trajectory stack: every row of its union and its table.
_WHOLE = (slice(None),)


class _Stack:
    """K trajectories of one problem at iteration t, advanced together. Row k
    of x and g_avg, and rows table_parts[k] (k*n to (k+1)*n - 1) of table, are
    trajectory k's iterate, table average and gradient table. Trajectory k
    takes s[k] components an iteration, at stepsize gamma[k]; they are the
    rows parts[k] of each iteration's union subset, and cell[j] is the
    trajectory of row j where there are several. Every trajectory enters the
    solver here, so x, g_avg and table are bound in the one float dtype they
    promote to, np.result_type(x, g_avg, table, 0.0), uncopied if in it."""

    __slots__ = ("t", "x", "g_avg", "table", "s", "gamma", "parts", "table_parts", "cell",
                 "row_gamma", "cell_gamma", "keep", "move")

    def __init__(self, t, x, g_avg, table, s, gamma, n):
        dtype = np.result_type(x, g_avg, table, 0.0)
        self.x, self.g_avg = x.astype(dtype, copy=False), g_avg.astype(dtype, copy=False)
        self.table, self.t, self.s, self.gamma = table.astype(dtype, copy=False), t, s, gamma
        if len(s) == 1:  # one trajectory's rows are all of them: no copy, no gather
            self.parts, self.table_parts, self.cell = _WHOLE, _WHOLE, None
            self.row_gamma = self.cell_gamma = gamma[0]
            self.keep, self.move = _prop1_coeffs(n, s[0])
            return
        ends = itertools.accumulate(s)
        self.parts = [slice(end - size, end) for end, size in zip(ends, s)]
        self.table_parts = [slice(k * n, (k + 1) * n) for k in range(len(s))]
        self.cell = np.repeat(np.arange(len(s)), s)
        # Scalars where the trajectories share them, else one value per
        # union row (gamma) or per trajectory; _linalg._per_row applies them.
        self.row_gamma, self.cell_gamma = _shared(gamma, self.cell), _shared(gamma)
        keep, move = zip(*[_prop1_coeffs(n, size) for size in s])
        self.keep, self.move = _shared(keep), _shared(move)

    def state(self, k):
        """Trajectory k as a SolverState over the stack's arrays."""
        return SolverState(self.t, self.x[k], self.table[self.table_parts[k]], self.g_avg[k])

    def spread(self, a):
        """Row k of a for every union row of trajectory k: a itself, which
        broadcasts, where there is one trajectory."""
        return a if self.cell is None else a.take(self.cell, axis=0)


def _row_means(a, parts, sizes):
    """Row k is the mean of the rows a[parts[k]], np.add.reduce(a[parts[k]],
    axis=0) / sizes[k]: mean(axis=0)'s own sum and division, without the
    wrapper whose checks cost more than the reduction on an iteration's few
    rows. Each part is summed alone; a sum across the parts
    (np.add.reduceat) rounds differently. Rows of two or more entries are
    added whole, in index order, as the certificate's column sweep adds a
    subset's; at d = 1 numpy adds a part's rows pairwise, not in index order
    (see _linalg._sum_rows), and the certificate keeps that reduce there."""
    if len(parts) == 1:  # the parts of one trajectory are all of a
        return (np.add.reduce(a, axis=0) / sizes[0])[None]
    means = [np.add.reduce(a[part], axis=0) / size for part, size in zip(parts, sizes)]
    return np.concatenate(means).reshape(len(parts), -1)


def _advance(stack, problem, rows, idx, refresh_every=None):
    """One iteration of every trajectory in stack, in place, on their union
    subset: union row j proxes component idx[j] at its trajectory's gamma
    and rewrites table row rows[j], and each trajectory's part of idx is
    sorted and distinct. Writes those rows, rebinds x and g_avg (a copy may
    share them) and moves t on. Returns the prox outputs, row j the prox of
    component idx[j]; a trajectory's new x is the mean of its part. A prox
    residual above TOL_PROX * (1 + ||z_j||) raises ProxFailure, naming the
    first such row's component, the iteration and its trajectory's gamma,
    and leaves the stack untouched. The norms are _linalg._norms': finite
    for every finite z_j, so a row's bound depends on its own z_j alone, as
    its prox does. So every trajectory advances bitwise as it would alone."""
    n = problem.n
    x_old, g_avg, table = stack.x, stack.g_avg, stack.table

    shift = table.take(rows, axis=0) - stack.spread(g_avg)
    z = stack.spread(x_old) + _per_row(stack.row_gamma, shift) * shift
    outs, residual = problem.bank.prox(stack.row_gamma, idx, z)
    ok = residual <= TOL_PROX * (1 + _norms(z))
    j = ok.argmin()  # the first failing row, if any row fails
    if not ok[j]:
        raise ProxFailure(int(idx[j]) + 1, float(residual[j]), stack.t + 1,
                          stack.gamma[0 if stack.cell is None else stack.cell[j]])

    moved = z - outs
    table[rows] = moved / _per_row(stack.row_gamma, moved)
    stack.x = _row_means(outs, stack.parts, stack.s)
    stack.t += 1
    if _refreshes(stack.t, refresh_every):
        stack.g_avg = _row_means(table, stack.table_parts, [n] * len(stack.s))
    else:
        # Integer coefficients and divisions in the array dtype: pre-rounding
        # s/(n*gamma) in float64 would freeze an absolute error at the iterate
        # scale into g_avg (the recurrence conserves g_avg - mean(table)).
        step = x_old - stack.x
        step = step / _per_row(stack.cell_gamma, step)
        stack.g_avg = (_per_row(stack.keep, g_avg) * g_avg + _per_row(stack.move, step) * step) / n
    return outs


def _advanced_copy(state, problem, gamma, idx, refresh_every=None):
    """(next state, prox outputs): one iteration at stepsize gamma, on the
    sorted 0-based subset idx, of a copy of state with its own table and
    the input's x and g_avg, which _advance only rebinds."""
    stack = _Stack(state.t, state.x[None], state.g_avg[None], state.grad_table.copy(),
                   [len(idx)], [gamma], problem.n)
    outs = _advance(stack, problem, idx, idx, refresh_every)
    return stack.state(0), outs


def apply_subset_step(state, problem, gamma, indices0):
    """One deterministic iteration given the 0-based subset to activate.

    gamma must be finite and > 0, and the state's t an integer >= 0, else
    InvalidConstants; the state's arrays must fit the problem (x and g_avg
    (dim,), grad_table (n, dim)), else DimensionMismatch, and hold integers
    or floats, else InvalidSpec; indices0 must be non-empty, strictly
    increasing integers in [0, n), else InvalidBatchSize.
    Pure: advances a copy of the state _check_state returns (its own table,
    x and g_avg, which _advance only rebinds) at the checked gamma, leaving
    the input untouched, and returns it in the dtype it promotes to.
    """
    _, _, gamma = _check_constants(problem.mu, problem.L, gamma=gamma)
    state = _check_state(state, problem)
    idx = np.asarray(indices0)
    if not (idx.ndim == 1 and idx.size and idx.dtype.kind in "iu" and 0 <= idx[0]
            and idx[-1] < problem.n and (idx[1:] > idx[:-1]).all()):
        raise InvalidBatchSize(f"need sorted distinct integers in [0, {problem.n}): {indices0!r}")
    return _advanced_copy(state, problem, gamma, idx.astype(int, copy=False))[0]


def step(state, problem, config, rng, gamma):
    """Draw the iteration's subset, run one step at stepsize gamma, and maybe
    refresh g_avg. Draws one subset with sample_k_subset, the same stream run
    draws in blocks.

    gamma is the resolved stepsize (see SolverConfig.resolve_gamma); config
    supplies s and the refresh cadence. Checks the config (as initialize
    does), gamma and the state before it draws, then steps on what the checks
    return. Pure, like apply_subset_step, and in the same dtype.
    """
    config.validate(problem)
    _, _, gamma = _check_constants(problem.mu, problem.L, gamma=gamma)
    state = _check_state(state, problem)
    idx0 = np.asarray(sample_k_subset(rng, problem.n, config.s), dtype=int) - 1
    return _advanced_copy(state, problem, gamma, idx0, config.refresh_every)[0]


def table_drift(state):
    """||g_avg - exact table mean||: floating-point drift of the recurrence."""
    diff = state.g_avg - state.grad_table.mean(axis=0)
    return np.sqrt(diff @ diff)


def run(problem, config, x0, *, drift=True):
    """Iterate from x0 for config.max_iters iterations: run_many's
    one-config case, whose diagnostics and subset stream it describes.

    Parameters
    ----------
    problem : FiniteSumProblem
    config : SolverConfig
        config.s, stepsize, budget, seed, trace cadence.
    x0 : ndarray
        Starting point; the run works in the float dtype of x0 and the problem's gradients at x0.
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
    return run_many(problem, [config], x0, drift=drift)[0]


def run_many(problem, configs, x0, *, drift=True):
    """One trajectory per config from x0, all advanced together, each for
    the max_iters they share: returns one (SolverState, list of TraceRecord)
    per config, each bitwise what run returns for that config alone, but
    for wall_ns.

    The configs must also share trace_every, refresh_every and
    init_gradients (else InvalidConstants), and may differ in s, gamma and
    seed. initialize validates the first and builds the initial table every
    trajectory starts from; the others are validated and every Lyapunov
    weight built before any iteration. A gamma whose weights overflow a
    Psi(0) with finite terms raises InvalidConstants before any iteration.

    Each iteration is one call of _advance: every trajectory's subset, drawn
    from its own SplitMix64 stream by sampling.sample_subsets in blocks of
    at most SUBSET_BLOCK draws across the trajectories as int64 rows (the
    stream step draws), joins one union subset, proxed by one bank call at
    each row's own gamma, so an iteration costs O(s*d) per trajectory
    whatever n is. The first failing row of the union raises: the earliest
    iteration's, then the first trajectory's, which need not be the error a
    loop of runs would meet first.

    The per-row table errors of the Lyapunov value are recomputed for the
    rows each iteration writes, so a record scores Psi with an O(n) sum. The
    table drift is an O(n*d) pass made only when a record is written, and
    skipped where a refresh has just made g_avg the table mean, so
    trace_every sets what it costs; with drift=False no record makes it. The
    row errors and the records are taken under one overflow scope per
    iteration, so a diagnostic past the dtype's range reads inf or NaN,
    without a warning. The trajectories share one clock: a record's wall_ns
    counts from the start of the t=0 records, after set-up.
    """
    if not configs:
        return []
    state = initialize(problem, configs[0], x0)
    shared = ("max_iters", "trace_every", "refresh_every", "init_gradients")
    for config in configs[1:]:
        config.validate(problem)
        if any(getattr(config, name) != getattr(configs[0], name) for name in shared):
            raise InvalidConstants(f"run_many's configs must share {', '.join(shared)}")
    max_iters, trace_every, refresh_every = (getattr(configs[0], name) for name in shared[:3])
    K, n = len(configs), problem.n
    s = [int(config.s) for config in configs]
    gammas = [config.resolve_gamma(problem) for config in configs]
    stack = _Stack(0, np.repeat(state.x[None], K, axis=0), np.repeat(state.g_avg[None], K, axis=0),
                   state.grad_table if K == 1 else np.concatenate([state.grad_table] * K),
                   s, gammas, n)  # one trajectory runs on initialize's table, uncopied
    del state

    x_star = problem.known_solution
    if x_star is not None:
        if x_star.dtype == stack.x.dtype:
            grad_star = problem.grad_star
        else:  # the kept table is at x*'s own dtype: build one at the run's
            x_star = x_star.astype(stack.x.dtype)
            grad_star = problem.bank.gradients(x_star)
        weights = [LyapunovWeights.from_constants(gamma, config.s, problem.mu, problem.L)
                   for gamma, config in zip(gammas, configs)]

    def record():
        is_mean = stack.t == 0 or _refreshes(stack.t, refresh_every)
        for k, (own, x, g_avg) in enumerate(zip(records, stack.x, stack.g_avg)):
            dist_sq = lyap = drift_norm = None
            if x_star is not None:
                d = x - x_star
                dist_sq = d @ d
                lyap = weights[k].score(dist_sq, errors[k])
            if drift:
                # Where g_avg is this very table mean (initialize's or a
                # refresh's), the pass would subtract equal arrays: +0.0
                # unless it is not finite.
                if is_mean and np.isfinite(g_avg).all():
                    drift_norm = g_avg.dtype.type(0.0)
                else:
                    drift_norm = table_drift(stack.state(k))
            own.append(TraceRecord(t=stack.t, dist_sq=dist_sq, lyapunov=lyap,
                                   table_drift=drift_norm,
                                   wall_ns=time.perf_counter_ns() - t_begin))

    records = [[] for _ in configs]
    with np.errstate(over="ignore", invalid="ignore"):
        if x_star is not None:
            row_errors = np.concatenate([_row_errors(stack.table[part], grad_star)
                                         for part in stack.table_parts])
            errors = list(row_errors.reshape(K, n))  # views: row k is trajectory k's
        t_begin = time.perf_counter_ns()
        record()
        # Weights at this gamma that overflow Psi(0) although both its terms
        # are finite would make every record inf; an x0 that overflows a term
        # on its own is left to the records.
        for k, own in enumerate(records):
            first = own[0]
            if (x_star is not None and not np.isfinite(first.lyapunov)
                    and np.isfinite((first.dist_sq, errors[k].sum())).all()):
                raise InvalidConstants(f"Psi at t=0 overflows at gamma={gammas[k]!r}")
    rngs = [SplitMix64(config.seed) for config in configs]
    offsets = np.repeat(np.arange(K) * n, s)  # union row j's table starts at offsets[j]
    per_block = max(1, SUBSET_BLOCK // len(offsets))
    while stack.t < max_iters:
        count = min(per_block, max_iters - stack.t)
        block = np.hstack([sample_subsets(rng, n, size, count) for rng, size in zip(rngs, s)])
        for idx, rows in zip(block, block + offsets):
            _advance(stack, problem, rows, idx, refresh_every)
            with np.errstate(over="ignore", invalid="ignore"):
                if x_star is not None:  # take: a cheaper gather than table[rows]
                    row_errors[rows] = _row_errors(stack.table.take(rows, axis=0),
                                                   grad_star.take(idx, axis=0))
                if stack.t % trace_every == 0 or stack.t == max_iters:
                    record()
    return [(stack.state(k), own) for k, own in enumerate(records)]
